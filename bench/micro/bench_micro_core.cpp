// Micro-benchmarks (google-benchmark): the hot primitives underneath
// every experiment — registry lookups, placement arithmetic, the sample
// checksum, sample (de)serialization, batch collation, spectrum smoothing,
// page-cache access, the contention primitive, and simmpi collectives.
// These measure real wall time of this implementation (unlike the figure
// benches, which report simulated time).
#include <benchmark/benchmark.h>

#include <chrono>
#include <span>
#include <vector>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/registry.hpp"
#include "datagen/molecule.hpp"
#include "fs/pagecache.hpp"
#include "graph/batch.hpp"
#include "model/clock.hpp"
#include "simmpi/runtime.hpp"

namespace {

using namespace dds;

void BM_RegistryLookup(benchmark::State& state) {
  const core::ChunkAssignment assignment(100'000, 64, core::Placement::Block);
  std::vector<std::uint32_t> lengths(100'000, 2000);
  std::vector<std::size_t> counts;
  for (int g = 0; g < 64; ++g) counts.push_back(assignment.chunk_size(g));
  const auto reg = core::DataRegistry::build(assignment, lengths, counts);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg->lookup(rng.uniform_u64(100'000)));
  }
}
BENCHMARK(BM_RegistryLookup);

void BM_ChunkOwnerOf(benchmark::State& state) {
  const core::ChunkAssignment assignment(10'500'000, 384,
                                         core::Placement::Block);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assignment.owner_of(rng.uniform_u64(10'500'000)));
  }
}
BENCHMARK(BM_ChunkOwnerOf);

void BM_SampleSerialize(benchmark::State& state) {
  Rng rng(3);
  const datagen::Molecule mol = datagen::generate_molecule(rng);
  const auto sample = datagen::molecule_to_sample(mol, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample.to_bytes());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sample.serialized_size()));
}
BENCHMARK(BM_SampleSerialize);

void BM_SampleDeserialize(benchmark::State& state) {
  Rng rng(4);
  const datagen::Molecule mol = datagen::generate_molecule(rng);
  const ByteBuffer bytes = datagen::molecule_to_sample(mol, 0).to_bytes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::GraphSample::deserialize(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_SampleDeserialize);

// The per-sample integrity check every verified fetch (and every preload
// sample) pays on the host.  Arg 0 digests one serialized molecule sample;
// a positive arg digests a zero-filled buffer of that many bytes.
void BM_Checksum64(benchmark::State& state) {
  ByteBuffer bytes(static_cast<std::size_t>(state.range(0)));
  if (bytes.empty()) {
    Rng rng(10);
    bytes = datagen::molecule_to_sample(datagen::generate_molecule(rng), 0)
                .to_bytes();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(checksum64(ByteSpan(bytes)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Checksum64)->Arg(0)->Arg(64 << 10);

// Host cost of one simmpi collective across the whole job (every rank's
// share plus the fiber switches), at Arg ranks: a barrier, the trainer's
// 22-counter untimed Sum, and a 7-double timed allreduce.  Each iteration
// is one run() of kReps collectives; its manual time is the wall time per
// collective, measured by rank 0 so fiber setup is excluded.
enum class CollectiveKind { Barrier, CounterSumUntimed, AllreduceDoubles };

void BM_Collective(benchmark::State& state, CollectiveKind kind) {
  constexpr int kReps = 64;
  simmpi::Runtime rt(static_cast<int>(state.range(0)), model::perlmutter());
  for (auto _ : state) {
    double seconds = 0.0;
    rt.run([&](simmpi::Comm& c) {
      std::vector<std::uint64_t> counters(22);
      std::vector<double> values(7);
      c.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kReps; ++i) {
        switch (kind) {
          case CollectiveKind::Barrier:
            c.barrier();
            break;
          case CollectiveKind::CounterSumUntimed:
            counters.assign(counters.size(), 1);
            c.allreduce_untimed(std::span<std::uint64_t>(counters),
                                simmpi::Op::Sum);
            benchmark::DoNotOptimize(counters.data());
            break;
          case CollectiveKind::AllreduceDoubles:
            values.assign(values.size(), 0.5 * c.rank());
            c.allreduce_inplace(std::span<double>(values), simmpi::Op::Sum);
            benchmark::DoNotOptimize(values.data());
            break;
        }
      }
      if (c.rank() == 0) {
        seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      }
    });
    state.SetIterationTime(seconds / kReps);
  }
}
BENCHMARK_CAPTURE(BM_Collective, barrier, CollectiveKind::Barrier)
    ->Arg(8)->Arg(256)->Arg(1024)->UseManualTime()->Iterations(16);
BENCHMARK_CAPTURE(BM_Collective, counters22_untimed,
                  CollectiveKind::CounterSumUntimed)
    ->Arg(8)->Arg(256)->Arg(1024)->UseManualTime()->Iterations(16);
BENCHMARK_CAPTURE(BM_Collective, doubles7, CollectiveKind::AllreduceDoubles)
    ->Arg(8)->Arg(256)->Arg(1024)->UseManualTime()->Iterations(16);

void BM_CollateBatch(benchmark::State& state) {
  Rng rng(5);
  std::vector<graph::GraphSample> samples;
  for (int i = 0; i < state.range(0); ++i) {
    const datagen::Molecule mol = datagen::generate_molecule(rng);
    samples.push_back(
        datagen::molecule_to_sample(mol, static_cast<std::uint64_t>(i)));
    samples.back().y = {0.0f};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::GraphBatch::collate(samples));
  }
}
BENCHMARK(BM_CollateBatch)->Arg(32)->Arg(128);

void BM_SmoothSpectrum(benchmark::State& state) {
  Rng rng(6);
  const datagen::Molecule mol = datagen::generate_molecule(rng);
  std::vector<float> pos, inten;
  datagen::uv_peaks(mol, rng, pos, inten);
  const auto bins = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(datagen::smooth_spectrum(pos, inten, bins));
  }
}
BENCHMARK(BM_SmoothSpectrum)->Arg(351)->Arg(37500);

void BM_PageCacheAccess(benchmark::State& state) {
  fs::PageCache cache(1 << 30);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.access(1, rng.uniform_u64(2048), 1 << 20));
  }
}
BENCHMARK(BM_PageCacheAccess);

void BM_BusyResourceAcquire(benchmark::State& state) {
  static model::BusyResource resource;
  for (auto _ : state) {
    benchmark::DoNotOptimize(resource.acquire(0.0, 1e-9));
  }
}
BENCHMARK(BM_BusyResourceAcquire);

void BM_RngPermutation(benchmark::State& state) {
  Rng rng(8);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.permutation(n));
  }
}
BENCHMARK(BM_RngPermutation)->Arg(1 << 14)->Arg(1 << 18);

void BM_LatencyPercentile(benchmark::State& state) {
  Rng rng(9);
  LatencyRecorder rec;
  for (int i = 0; i < 100'000; ++i) rec.add(rng.exponential(1000.0));
  for (auto _ : state) {
    // Re-sorting dominates the first call; subsequent calls are cached.
    benchmark::DoNotOptimize(rec.percentile(99.0));
  }
}
BENCHMARK(BM_LatencyPercentile);

}  // namespace

BENCHMARK_MAIN();
