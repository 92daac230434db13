#include "bench_common.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>

#include "util/json.h"

namespace receipt::bench {
namespace {

int EnvOrDefault(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const int parsed = std::atoi(value);
  return parsed > 0 ? parsed : fallback;
}

}  // namespace

const BipartiteGraph& Dataset(const std::string& name) {
  static std::map<std::string, BipartiteGraph>& cache =
      *new std::map<std::string, BipartiteGraph>();
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, MakePaperAnalogue(name)).first;
  }
  return it->second;
}

std::vector<Target> AllTargets() {
  std::vector<Target> targets;
  for (const std::string& name : PaperAnalogueNames()) {
    std::string cap = name;
    cap[0] = static_cast<char>(cap[0] - 'a' + 'A');
    targets.push_back({cap + "U", name, Side::kU});
    targets.push_back({cap + "V", name, Side::kV});
  }
  return targets;
}

int DefaultThreads() { return EnvOrDefault("RECEIPT_BENCH_THREADS", 4); }

const char* ExtractionName(MinExtraction kind) {
  switch (kind) {
    case MinExtraction::kDAryHeap:
      return "4ary_heap";
    case MinExtraction::kBucketQueue:
      return "buckets";
    case MinExtraction::kPairingHeap:
      return "pairing";
  }
  return "?";
}

int DefaultPartitions() {
  return EnvOrDefault("RECEIPT_BENCH_PARTITIONS", 30);
}

namespace {

// Table 3 of the paper, transcribed. -1 = not reported (OOM or >10 days).
constexpr PaperTable3Row kPaperTable3[] = {
    //  label  t_cnt   t_bup     t_parb   t_rec   w_bup    w_rec  rho_parb rho_rec
    {"ItU", 0.3, 3849, 3677, 56.8, 723, 71, 377904, 967},
    {"ItV", 0.3, 8.4, 8.1, 3.1, 0.57, 0.56, 10054, 280},
    {"DeU", 8.3, 12260, -1, 402.4, 2861, 1503, 670189, 1113},
    {"DeV", 8.3, 428, 377.7, 32.4, 70.1, 51.3, 127328, 406},
    {"OrU", 45.6, 39079, -1, 1865, 4975, 2728, 1136129, 1160},
    {"OrV", 45.6, 2297, 1510, 136, 231.4, 170.4, 334064, 639},
    {"LjU", 5.1, 67588, -1, 911.1, 5403, 1003, 1479495, 1477},
    {"LjV", 5.1, 200, 132.5, 23.7, 14.3, 11.7, 83423, 456},
    {"EnU", 6.9, 111777, -1, 1383, 12583, 2414, 1512922, 1724},
    {"EnV", 6.9, 281, 198, 31.1, 29.6, 22.2, 83800, 453},
    {"TrU", 7.8, -1, -1, 2784, 211156, 3298, 1476015, 1335},
    {"TrV", 7.8, 5711, 3524, 530.6, 1740, 658.1, 342672, 1381},
};

constexpr PaperTable2Row kPaperTable2[] = {
    {"it", 298, 361, 1555462, 5328302365.0},
    {"de", 26683, 1446, 936468800.0, 91968444615.0},
    {"or", 22131, 2528, 88812453.0, 29285249823.0},
    {"lj", 3297, 2703, 4670317.0, 82785273931.0},
    {"en", 2036, 6299, 37217466.0, 96241348356.0},
    {"tr", 20068, 106441, 18667660476.0, 3030765085153.0},
};

}  // namespace

const PaperTable3Row* FindPaperRow(const std::string& label) {
  for (const PaperTable3Row& row : kPaperTable3) {
    if (label == row.label) return &row;
  }
  return nullptr;
}

const PaperTable2Row* FindPaperTable2Row(const std::string& dataset) {
  for (const PaperTable2Row& row : kPaperTable2) {
    if (dataset == row.dataset) return &row;
  }
  return nullptr;
}

PeelStats RunReceiptAblation(const Target& target, AblationConfig config) {
  TipOptions options;
  options.side = target.side;
  options.num_threads = DefaultThreads();
  options.num_partitions = DefaultPartitions();
  options.use_dgm = config == AblationConfig::kFull;
  options.use_huc = config != AblationConfig::kNeither;
  return ReceiptDecompose(Dataset(target.dataset), options).stats;
}

void PrintRule(char fill) {
  for (int i = 0; i < 100; ++i) std::putchar(fill);
  std::putchar('\n');
}

void PrintHeader(const std::string& title) {
  PrintRule('=');
  std::printf("%s\n", title.c_str());
  std::printf(
      "datasets: deterministic scaled analogues of the paper's KONECT "
      "graphs (see README.md, \"Dataset analogues\");\nabsolute numbers "
      "differ by design — compare shapes/ratios against the paper "
      "columns.\n");
  PrintRule('=');
}

std::string ConsumeJsonFlag(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= *argc) {
        // Fail fast: silently dropping the flag would let a CI step
        // believe a trajectory file was produced when none was.
        std::fprintf(stderr, "--json requires a path argument\n");
        std::exit(2);
      }
      path = argv[i + 1];
      ++i;  // skip the value
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return path;
}

void AppendPeelStats(const PeelStats& stats, JsonRecord* record) {
  ForEachPeelStatsField([&](const char* name, auto member, StatFold) {
    if constexpr (std::is_same_v<decltype(stats.*member), const double&>) {
      record->values.emplace_back(name, stats.*member);
    } else {
      record->counters.emplace_back(name, stats.*member);
    }
  });
}

bool WriteBenchJson(const std::string& path, const std::string& bench,
                    const std::vector<JsonRecord>& records) {
  // Rides the shared util::JsonWriter (the same writer the HTTP front-end
  // serializes responses with), so escaping and number formatting are
  // identical across every JSON byte the repo emits.
  util::JsonWriter writer;
  writer.BeginObject().Key("bench").String(bench).Key("records").BeginArray();
  for (const JsonRecord& record : records) {
    writer.BeginObject().Key("name").String(record.name);
    for (const auto& [key, value] : record.counters) {
      writer.Key(key).Uint(value);
    }
    for (const auto& [key, value] : record.values) {
      writer.Key(key).Double(value);
    }
    writer.EndObject();
  }
  writer.EndArray().EndObject();

  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot write JSON output to %s\n", path.c_str());
    return false;
  }
  file << writer.str() << "\n";
  return static_cast<bool>(file);
}

}  // namespace receipt::bench
