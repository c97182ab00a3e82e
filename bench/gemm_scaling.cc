// GEMM throughput per register tile and intra-op scaling across thread
// budgets (DESIGN.md §6, §10).
//
// Times the three dispatched GEMM kernels — NN forward, NT (A·Bᵀ) and
// TN (Aᵀ·B) backward — on paper-scale shapes (the [B·L, dim] blocks a
// hidden-128 backbone pushes through training steps, the serving BiGRU's
// input projection, and FiLM's m=1 dφ) for every register tile the host
// runs (matmul_kernel.h: portable, plus avx512 where the CPU has AVX-512F)
// under increasing intra-op budgets, and reports GFLOP/s plus the speedup
// over the serial run at each budget.
//
// Correctness gates, before anything is timed: for every shape, every tile
// at every budget must be BITWISE-identical (memcmp) to that tile's budget-1
// result, every tile's budget-1 result bitwise-identical to the portable
// tile's, and every NT result bitwise-identical to packing Bᵀ and running
// the NN product (FiLM's m = 1 dφ reads B in place instead) — a speed number
// can never be bought with a determinism or cross-ISA regression.  On a
// single-core container the speedups will sit near 1.0x (the slab pool has
// no spare cores); the bitwise gates still verify the dispatch, and
// multi-core CI measures the real scaling.
//
//   ./gemm_scaling --threads 1,2,4 --min-seconds 0.5 --json out.json

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "tensor/intraop.h"
#include "tensor/matmul_kernel.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace fewner {
namespace {

using Clock = std::chrono::steady_clock;

struct GemmCase {
  const char* op;    // "nn" | "nt" | "tn"
  const char* role;  // which training-step GEMM this shape stands in for
  int64_t m, k, n;
};

// Shapes from a hidden-128, 5-way FEWNER step at B·L = 160 padded tokens:
// encoder input projection [B·L, token] x [token, 3H], its NT/TN backward,
// and the emission head over the [B·L, 2H] encoder output.  The last two are
// the serving model's: its 450-wide token (word 300 + char 150) projected to
// 3H, and FiLM's dφ = g·W_filmᵀ, [1, 512]·[256, 512]ᵀ, which at m = 1 runs
// as W_film·g with W_film read in place (no pack of Bᵀ).  The last shape is
// the same dφ at the training model's scale (context 96, 2F = 192), so both
// model scales of the one-column path pass the parity gates.
constexpr GemmCase kCases[] = {
    {"nn", "encoder input projection", 160, 124, 384},
    {"nt", "d(activations) of the projection", 160, 384, 124},
    {"tn", "d(weights) of the projection", 124, 160, 384},
    {"nn", "emission head", 160, 256, 128},
    {"tn", "d(weights) of the emission head", 256, 160, 128},
    {"nn", "serving input projection", 160, 450, 384},
    {"nt", "FiLM d(phi)", 1, 512, 256},
    {"nt", "FiLM d(phi), training scale", 1, 192, 96},
};

std::vector<float> RandomVec(int64_t numel, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(numel));
  for (float& x : v) x = static_cast<float>(rng.Gaussian(0.0, 1.0));
  return v;
}

void RunCase(const GemmCase& c, const tensor::kernel::GemmTile& tile,
             const std::vector<float>& a, const std::vector<float>& b,
             std::vector<float>* out) {
  const auto gemm = std::strcmp(c.op, "nn") == 0   ? tensor::kernel::GemmNN
                    : std::strcmp(c.op, "nt") == 0 ? tensor::kernel::GemmNT
                                                   : tensor::kernel::GemmTN;
  gemm(a.data(), b.data(), out->data(), c.m, c.k, c.n, tile);
}

/// Repeats `fn` until `min_seconds` elapses; returns iterations per second.
template <typename F>
double MeasureRate(double min_seconds, F fn) {
  fn();  // warm-up: slab pool spin-up, scratch growth
  int64_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(iters) / elapsed;
}

int Main(int argc, char** argv) {
  util::FlagParser flags;
  flags.AddString("threads", "1,2,4", "comma list of intra-op budgets");
  flags.AddDouble("min-seconds", 0.5, "minimum measured wall time per cell");
  bench::AddJsonFlag(&flags);
  util::Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n" << flags.Usage(argv[0]);
    return 1;
  }
  if (flags.help_requested()) return 0;

  std::vector<int64_t> budgets;
  for (const std::string& s : util::Split(flags.GetString("threads"), ',')) {
    char* end = nullptr;
    const long long value = std::strtoll(s.c_str(), &end, 10);
    if (s.empty() || *end != '\0' || value < 1) {
      std::cerr << "invalid --threads entry '" << s << "'\n";
      return 1;
    }
    budgets.push_back(value);
  }
  int64_t max_budget = 1;
  for (int64_t t : budgets) max_budget = t > max_budget ? t : max_budget;
  const double min_seconds = flags.GetDouble("min-seconds");
  const std::span<const tensor::kernel::GemmTile* const> tiles =
      tensor::kernel::HostTiles();
  const tensor::kernel::GemmTile& portable = *tiles.front();

  // Correctness gates: every tile at every budget must reproduce its own
  // serial result bitwise, every tile's serial result must be the portable
  // tile's, and every NT must be its pack-then-NN product.
  uint64_t seed = 0x6E44;
  for (const GemmCase& c : kCases) {
    // a is [m, k] for nn/nt ([k, m] for tn); b is [k, n] ([n, k] for nt).
    const std::vector<float> a = RandomVec(c.m * c.k, seed++);
    const std::vector<float> b = RandomVec(c.k * c.n, seed++);
    const auto serial_result = [&](const tensor::kernel::GemmTile& tile) {
      std::vector<float> out(static_cast<size_t>(c.m * c.n));
      const tensor::ParallelismBudget serial(1);
      RunCase(c, tile, a, b, &out);
      return out;
    };
    const std::vector<float> portable_result = serial_result(portable);
    for (const tensor::kernel::GemmTile* tile : tiles) {
      const std::vector<float> reference = serial_result(*tile);
      if (std::memcmp(reference.data(), portable_result.data(),
                      reference.size() * sizeof(float)) != 0) {
        std::cerr << "ERROR: " << c.op << " " << c.m << "x" << c.k << "x"
                  << c.n << " on the " << tile->name
                  << " tile diverges from the portable tile\n";
        return 1;
      }
      if (std::strcmp(c.op, "nt") == 0) {
        // A·Bᵀ against the pack-then-NN product it stands for; at m = 1 the
        // NT reads B in place, so this gates that path too.
        std::vector<float> bt(b.size());
        tensor::kernel::PackTranspose(b.data(), bt.data(), c.n, c.k);
        std::vector<float> packed(static_cast<size_t>(c.m * c.n));
        tensor::kernel::MatMulBlocked(a.data(), bt.data(), packed.data(), c.m,
                                      c.k, c.n, *tile);
        if (std::memcmp(reference.data(), packed.data(),
                        reference.size() * sizeof(float)) != 0) {
          std::cerr << "ERROR: nt " << c.m << "x" << c.k << "x" << c.n
                    << " on the " << tile->name
                    << " tile diverges from pack-then-NN\n";
          return 1;
        }
      }
      for (int64_t t : budgets) {
        const tensor::ParallelismBudget budget(t);
        std::vector<float> sharded(static_cast<size_t>(c.m * c.n));
        RunCase(c, *tile, a, b, &sharded);
        if (std::memcmp(reference.data(), sharded.data(),
                        reference.size() * sizeof(float)) != 0) {
          std::cerr << "ERROR: " << c.op << " " << c.m << "x" << c.k << "x"
                    << c.n << " on the " << tile->name
                    << " tile diverges from the serial result at budget " << t
                    << "\n";
          return 1;
        }
      }
    }
  }
  std::printf(
      "parity: all shapes bitwise-equal across budgets and tiles, every NT to "
      "pack-then-NN\n");

  bench::JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.Value("gemm_scaling");
  json.Key("max_threads");
  json.Value(max_budget);
  json.Key("results");
  json.BeginArray();

  std::printf("     isa  op     m    k    n  threads   GFLOP/s  speedup\n");
  double speedup_sum_at_max = 0.0;
  double worst_at_max = 1e30;
  for (const GemmCase& c : kCases) {
    const std::vector<float> a = RandomVec(c.m * c.k, seed++);
    const std::vector<float> b = RandomVec(c.k * c.n, seed++);
    std::vector<float> out(static_cast<size_t>(c.m * c.n));
    const double flops = 2.0 * static_cast<double>(c.m) *
                         static_cast<double>(c.k) * static_cast<double>(c.n);
    for (const tensor::kernel::GemmTile* tile : tiles) {
      double serial_rate = 0.0;
      for (int64_t t : budgets) {
        const tensor::ParallelismBudget budget(t);
        const double rate =
            MeasureRate(min_seconds, [&] { RunCase(c, *tile, a, b, &out); });
        if (t == 1) serial_rate = rate;
        const double speedup = serial_rate > 0.0 ? rate / serial_rate : 1.0;
        if (t == max_budget) {
          speedup_sum_at_max += speedup;
          worst_at_max = speedup < worst_at_max ? speedup : worst_at_max;
        }
        std::printf("%8s %4s %5lld %4lld %4lld %8lld %9.2f %7.2fx\n",
                    tile->name, c.op, static_cast<long long>(c.m),
                    static_cast<long long>(c.k), static_cast<long long>(c.n),
                    static_cast<long long>(t), rate * flops * 1e-9, speedup);

        json.BeginObject();
        json.Key("isa");
        json.Value(tile->name);
        json.Key("op");
        json.Value(c.op);
        json.Key("role");
        json.Value(c.role);
        json.Key("m");
        json.Value(c.m);
        json.Key("k");
        json.Value(c.k);
        json.Key("n");
        json.Value(c.n);
        json.Key("threads");
        json.Value(t);
        json.Key("gflops");
        json.Value(rate * flops * 1e-9);
        json.Key("speedup_vs_serial");
        json.Value(speedup);
        json.EndObject();
      }
    }
  }
  json.EndArray();
  const double num_cases = static_cast<double>(
      sizeof(kCases) / sizeof(kCases[0]) * tiles.size());
  json.Key("mean_speedup_at_max_threads");
  json.Value(speedup_sum_at_max / num_cases);
  json.Key("min_speedup_at_max_threads");
  json.Value(worst_at_max);
  json.EndObject();

  std::printf("speedup at %lld threads: mean %.2fx, min %.2fx\n",
              static_cast<long long>(max_budget),
              speedup_sum_at_max / num_cases, worst_at_max);

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    if (!json.WriteFile(json_path)) {
      std::cerr << "ERROR: could not write " << json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace fewner

int main(int argc, char** argv) { return fewner::Main(argc, argv); }
