#include "util/stats.h"

#include <algorithm>
#include <sstream>

namespace receipt {

// Every PeelStats field is 8 bytes wide, so a field declared without its
// ForEachPeelStatsField line fails here.
static_assert(sizeof(PeelStats) == 8 * [] {
  size_t fields = 0;
  ForEachPeelStatsField([&](const char*, auto, StatFold) { ++fields; });
  return fields;
}());

void PeelStats::Merge(const PeelStats& other) {
  ForEachPeelStatsField([&](const char*, auto member, StatFold fold) {
    this->*member = fold == StatFold::kMax
                        ? std::max(this->*member, other.*member)
                        : this->*member + other.*member;
  });
}

std::string PeelStats::ToString() const {
  std::ostringstream os;
  os << "PeelStats{\n";
  ForEachPeelStatsField([&](const char* name, auto member, StatFold) {
    os << "  " << name << "=" << this->*member << "\n";
  });
  os << "  total_wedges=" << TotalWedges() << "\n}";
  return os.str();
}

}  // namespace receipt
