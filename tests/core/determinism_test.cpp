// Determinism tests for the traced training pipeline: the EpochReport
// (modeled times and every counter) and the exported Chrome trace must be
// BYTE-identical across repeated runs (the contract the CI perf gate
// builds on), and the trainer's Train-category event stream must be
// invariant to the replication width (width changes the data placement,
// never the training schedule).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/tracing/export.hpp"
#include "datagen/dataset.hpp"
#include "formats/cff.hpp"
#include "train/sim_trainer.hpp"

namespace dds {
namespace {

using datagen::DatasetKind;
using model::test_machine;

struct TracedRun {
  train::EpochReport report;
  std::string trace_json;
  /// Rank 0's Train-category event names, in record order.
  std::vector<std::string> train_stream;
};

TracedRun run_traced(int width) {
  const auto machine = test_machine();
  constexpr int kRanks = 4;
  constexpr std::uint64_t kSamples = 96;

  fs::ParallelFileSystem pfs(machine.fs, machine.nodes_for_ranks(kRanks));
  const auto ds =
      datagen::make_dataset(DatasetKind::AisdExDiscrete, kSamples, 11);
  formats::CffWriter::stage(pfs, "cff", *ds, 2);
  const formats::CffReader reader(pfs, "cff",
                                  ds->spec().nominal_cff_sample_bytes());

  TracedRun result;
  simmpi::Runtime rt(kRanks, machine, /*seed=*/42);
  rt.enable_tracing(/*capacity_per_rank=*/1u << 16);
  rt.run([&](simmpi::Comm& c) {
    fs::FsClient client(pfs, machine.node_of_rank(c.world_rank()), c.clock(),
                        c.rng());
    core::DDStoreConfig cfg;
    cfg.width = width;
    core::DDStore store(c, reader, client, cfg);
    c.barrier();
    c.clock().reset();
    c.barrier();
    train::DDStoreBackend backend(store);
    train::GlobalShuffleSampler sampler(kSamples, 8, 42);
    train::SimTrainerConfig tcfg;
    tcfg.input_dim = 6;
    tcfg.output_dim = 100;
    train::SimulatedTrainer trainer(c, backend, sampler, machine, tcfg);
    const auto report = trainer.run_epoch(0);
    if (c.rank() == 0) result.report = report;
    c.barrier();
  });

  result.trace_json = tracing::to_chrome_json(rt.traces());
  for (const auto& e : rt.traces().front()->snapshot()) {
    if (e.category == tracing::Category::Train) {
      result.train_stream.emplace_back(e.name);
    }
  }
  return result;
}

TEST(Determinism, RepeatedRunsProduceIdenticalTraces) {
  const auto a = run_traced(/*width=*/2);
  const auto b = run_traced(/*width=*/2);
  // Exact double equality everywhere — determinism means bit-identical
  // modeled time, not "close".
  EXPECT_EQ(a.report.epoch_seconds, b.report.epoch_seconds);
  EXPECT_EQ(a.report.throughput, b.report.throughput);
  EXPECT_EQ(a.report.global_samples, b.report.global_samples);
  EXPECT_EQ(a.report.overlap_hidden_s, b.report.overlap_hidden_s);
  EXPECT_GT(a.report.epoch_seconds, 0.0);
  // Every backend counter, by name and value, in registration order.
  ASSERT_EQ(a.report.metrics.size(), b.report.metrics.size());
  ASSERT_FALSE(a.report.metrics.empty());
  for (std::size_t i = 0; i < a.report.metrics.size(); ++i) {
    EXPECT_EQ(a.report.metrics[i].name, b.report.metrics[i].name);
    EXPECT_EQ(a.report.metrics[i].value, b.report.metrics[i].value)
        << a.report.metrics[i].name;
  }
  // The exported Chrome JSON is a pure function of the event streams, so
  // the two documents must match byte for byte.
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_FALSE(a.trace_json.empty());
}

TEST(Determinism, TrainStreamIsWidthIndependent) {
  // Width moves bytes around (different owners, different RMA targets)
  // but must not change what the trainer *does*: the sequence of
  // Train-category events is identical at width 2 and width 4 even though
  // their timestamps differ.
  const auto w2 = run_traced(/*width=*/2);
  const auto w4 = run_traced(/*width=*/4);
  ASSERT_FALSE(w2.train_stream.empty());
  EXPECT_EQ(w2.train_stream, w4.train_stream);
  // The full traces DO differ: placement changes the transport timeline.
  EXPECT_NE(w2.trace_json, w4.trace_json);
}

TEST(Determinism, TracedRunMatchesUntracedTimes) {
  // The overhead contract: recording events must not perturb the virtual
  // clock.  Run the same scenario with tracing off and compare the modeled
  // epoch time exactly.
  const auto traced = run_traced(/*width=*/2);

  const auto machine = test_machine();
  constexpr int kRanks = 4;
  constexpr std::uint64_t kSamples = 96;
  fs::ParallelFileSystem pfs(machine.fs, machine.nodes_for_ranks(kRanks));
  const auto ds =
      datagen::make_dataset(DatasetKind::AisdExDiscrete, kSamples, 11);
  formats::CffWriter::stage(pfs, "cff", *ds, 2);
  const formats::CffReader reader(pfs, "cff",
                                  ds->spec().nominal_cff_sample_bytes());
  double untraced_epoch = 0;
  simmpi::Runtime rt(kRanks, machine, 42);
  rt.run([&](simmpi::Comm& c) {
    fs::FsClient client(pfs, machine.node_of_rank(c.world_rank()), c.clock(),
                        c.rng());
    core::DDStoreConfig cfg;
    cfg.width = 2;
    core::DDStore store(c, reader, client, cfg);
    c.barrier();
    c.clock().reset();
    c.barrier();
    train::DDStoreBackend backend(store);
    train::GlobalShuffleSampler sampler(kSamples, 8, 42);
    train::SimTrainerConfig tcfg;
    tcfg.input_dim = 6;
    tcfg.output_dim = 100;
    train::SimulatedTrainer trainer(c, backend, sampler, machine, tcfg);
    const auto report = trainer.run_epoch(0);
    if (c.rank() == 0) untraced_epoch = report.epoch_seconds;
    c.barrier();
  });
  EXPECT_EQ(traced.report.epoch_seconds, untraced_epoch);
}

}  // namespace
}  // namespace dds
