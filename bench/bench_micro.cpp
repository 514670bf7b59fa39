// Microbenchmarks (google-benchmark) for the library's hot paths, plus the
// ablations docs/DESIGN.md calls out: kNN query and index build, rule coverage
// evaluation, SMOTE-NC generation, model training, the base-instance IP,
// and the per-iteration FROTE objective evaluation.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "frote/core/checkpoint.hpp"
#include "frote/core/engine.hpp"
#include "frote/core/frote.hpp"
#include "frote/core/generate.hpp"
#include "frote/core/registry.hpp"
#include "frote/core/scenario.hpp"
#include "frote/data/generators.hpp"
#include "frote/exp/learners.hpp"
#include "frote/metrics/metrics.hpp"
#include "frote/opt/ip.hpp"
#include "frote/smote/smote.hpp"

#ifdef FROTE_SERVE_BINARY
#include "serve_harness.hpp"  // tests/; gtest-free by design
#endif

namespace {

using namespace frote;

const Dataset& adult(std::size_t n) {
  static std::map<std::size_t, Dataset> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, make_dataset(UciDataset::kAdult, n)).first;
  }
  return it->second;
}

FeedbackRule adult_rule(const Dataset& data) {
  // age > median AND education_num > median: deterministic class 1.
  const auto age = data.numeric_column_stats(0);
  return FeedbackRule::deterministic(
      Clause({Predicate{0, Op::kGt, age.mean},
              Predicate{1, Op::kGt, 10.0}}),
      1, data.num_classes());
}

void BM_CoverageEval(benchmark::State& state) {
  const auto& data = adult(static_cast<std::size_t>(state.range(0)));
  const auto rule = adult_rule(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coverage(rule, data).size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_CoverageEval)->Arg(1000)->Arg(4000);

void BM_KnnBrute(benchmark::State& state) {
  const auto& data = adult(static_cast<std::size_t>(state.range(0)));
  const BruteKnn knn(data, MixedDistance::fit(data));
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.query(data.row(q++ % data.size()), 5));
  }
}
BENCHMARK(BM_KnnBrute)->Arg(1000)->Arg(4000)->Arg(8000);

void BM_KnnBuild(benchmark::State& state) {
  const auto& data = adult(static_cast<std::size_t>(state.range(0)));
  const auto distance = MixedDistance::fit(data);
  for (auto _ : state) {
    BruteKnn knn(data, distance);
    benchmark::DoNotOptimize(knn.size());
  }
}
// The signature grouping and numeric packing a fresh index pays once.
BENCHMARK(BM_KnnBuild)->Arg(1000)->Arg(8000);

void BM_SmoteNcGenerate(benchmark::State& state) {
  const auto& data = adult(2000);
  const auto rule = adult_rule(data);
  FeedbackRuleSet frs({rule});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto distance = MixedDistance::fit(data);
  RuleConstrainedGenerator gen(data, rule, bp.per_rule[0], distance, {});
  Rng rng(1);
  std::vector<double> row;
  int label = 0;
  std::size_t slot = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gen.generate(slot++ % bp.per_rule[0].indices.size(), rng, row,
                     label));
  }
}
BENCHMARK(BM_SmoteNcGenerate);

void BM_TrainModel(benchmark::State& state) {
  const auto& data = adult(1000);
  const auto kind = static_cast<LearnerKind>(state.range(0));
  const auto learner = make_learner(kind, 42, /*fast=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(learner->train(data));
  }
  state.SetLabel(learner_name(kind));
}
BENCHMARK(BM_TrainModel)
    ->Arg(static_cast<int>(LearnerKind::kLR))
    ->Arg(static_cast<int>(LearnerKind::kRF))
    ->Arg(static_cast<int>(LearnerKind::kLGBM));

void BM_ModelUpdate(benchmark::State& state) {
  // Learner::update() on a dataset grown by one accepted batch (η = 20 rows):
  // the accept-path retrain cost the session pays per committed edit, vs the
  // from-scratch cost BM_TrainModel measures. "rf" is the exact incremental
  // override (bitwise ≡ train); lr_warm / gbdt_additive are the opt-in
  // approximate warm starts (docs/DESIGN.md §10).
  static constexpr const char* kNames[] = {"rf", "lr_warm", "gbdt_additive"};
  const char* name = kNames[state.range(0)];
  const auto& base = adult(1000);
  LearnerSpec spec;
  spec.seed = 42;
  spec.fast = true;
  const auto learner = make_named_learner(name, spec).value();
  Dataset data(base);
  const std::size_t trained_rows = data.size();
  const auto previous = learner->train(data);
  for (std::size_t i = 0; i < 20; ++i) {
    data.add_row(base.row(i), base.label(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(learner->update(*previous, data, trained_rows));
  }
  state.SetLabel(name);
}
BENCHMARK(BM_ModelUpdate)->Arg(0)->Arg(1)->Arg(2);

void BM_ObjectiveEval(benchmark::State& state) {
  const auto& data = adult(2000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto learner = make_learner(LearnerKind::kRF, 42, true);
  const auto model = learner->train(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(train_j_hat_bar(*model, frs, data));
  }
}
BENCHMARK(BM_ObjectiveEval);

void BM_IpSelection(benchmark::State& state) {
  const auto& data = adult(2000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto learner = make_learner(LearnerKind::kRF, 42, true);
  const auto model = learner->train(data);
  IpSelector selector;
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(data, bp, *model, 50, rng));
  }
}
BENCHMARK(BM_IpSelection);

void BM_IpSelectionSized(benchmark::State& state) {
  // Cold selection cost across dataset sizes (every iteration refits the
  // distance, rebuilds the index and re-predicts — the pre-workspace
  // per-step cost; its kNN self-join dominates from 4000 rows up). The scale
  // points run the scale tier for real: columnar chunked storage
  // (docs/DESIGN.md §8) and, past shard_min_rows, the sharded kNN index.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Dataset data = adult(n);
  if (n >= 100000) data.set_storage({/*chunk_rows=*/8192, /*mmap=*/false});
  FeedbackRuleSet frs({adult_rule(data)});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto learner = make_learner(LearnerKind::kRF, 42, true);
  const auto model = learner->train(data);
  IpSelector selector;
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(data, bp, *model, 50, rng));
  }
}

/// Scale args for BM_IpSelection: 100k always (chunked storage + sharded
/// kNN), 1M only when FROTE_BENCH_SLOW=1 — the million-row point takes
/// minutes and is for dedicated perf runs, not the CI trend table.
void AddIpSelectionScaleArgs(benchmark::internal::Benchmark* bench) {
  bench->Arg(100000);
  const char* slow = std::getenv("FROTE_BENCH_SLOW");
  if (slow != nullptr && slow[0] != '\0' && std::string(slow) != "0") {
    bench->Arg(1000000);
  }
}

BENCHMARK(BM_IpSelectionSized)
    ->Name("BM_IpSelection")
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(8000)
    ->Apply(AddIpSelectionScaleArgs);

void BM_IpSelectionWarm(benchmark::State& state) {
  // Steady-state selection through a bound SessionWorkspace: after the
  // first call the distance/index/prediction/weight caches all hit — the
  // per-iteration cost of IP selection on the FROTE loop's reject path.
  const auto& data = adult(static_cast<std::size_t>(state.range(0)));
  FeedbackRuleSet frs({adult_rule(data)});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto learner = make_learner(LearnerKind::kRF, 42, true);
  const auto model = learner->train(data);
  IpSelector selector;
  SessionWorkspace ws(/*threads=*/0);
  ws.bind(data);
  ws.set_model_stamp(1);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(data, bp, *model, 50, rng, &ws));
  }
}
BENCHMARK(BM_IpSelectionWarm)->Arg(1000)->Arg(4000)->Arg(8000);

void BM_RandomSelection(benchmark::State& state) {
  const auto& data = adult(2000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto learner = make_learner(LearnerKind::kRF, 42, true);
  const auto model = learner->train(data);
  RandomSelector selector;
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(data, bp, *model, 50, rng));
  }
}
BENCHMARK(BM_RandomSelection);

void BM_ClassicSmote(benchmark::State& state) {
  const auto& data = adult(2000);
  SmoteConfig config;
  config.amount_percent = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(smote_oversample(data, 1, config).size());
  }
}
BENCHMARK(BM_ClassicSmote);

void BM_FroteIteration(benchmark::State& state) {
  // One full FROTE edit at τ = 2 — the end-to-end per-iteration cost,
  // through the legacy frote_edit() shim.
  const auto& data = adult(1000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto learner = make_learner(LearnerKind::kRF, 42, true);
  FroteConfig config;
  config.tau = 2;
  config.eta = 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        frote_edit(data, *learner, frs, config).instances_added);
  }
}
BENCHMARK(BM_FroteIteration);

void BM_EngineSessionRun(benchmark::State& state) {
  // The same τ = 2 workload through Engine/Session directly. The delta vs
  // BM_FroteIteration is the session-step overhead the CI baseline
  // (BENCH_micro.json) tracks; tests/test_engine_perf.cpp bounds it at 5%.
  const auto& data = adult(1000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto learner = make_learner(LearnerKind::kRF, 42, true);
  const auto engine =
      Engine::Builder().rules(frs).tau(2).eta(20).build().value();
  for (auto _ : state) {
    auto session = engine.open(data, *learner).value();
    session.run();
    benchmark::DoNotOptimize(std::move(session).result().instances_added);
  }
}
BENCHMARK(BM_EngineSessionRun);

void BM_SessionStep(benchmark::State& state) {
  // Amortized cost of one step() (select → generate → retrain → gate) on a
  // long-lived session. The session is recycled (outside the timed region)
  // before D̂ grows past 20% so the workload stays stationary — otherwise
  // ns/op would scale with the benchmark's min-time instead of the step.
  const auto& data = adult(1000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto learner = make_learner(LearnerKind::kRF, 42, true);
  const auto engine = Engine::Builder().rules(frs).eta(20).build().value();
  auto session = engine.open(data, *learner).value();
  for (auto _ : state) {
    if (session.finished() || session.progress().instances_added > 200) {
      state.PauseTiming();
      session = engine.open(data, *learner).value();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(session.step().status);
  }
}
BENCHMARK(BM_SessionStep);

struct NeverAcceptPolicy final : AcceptancePolicy {
  bool accept(const AcceptanceContext&) const override { return false; }
};

void BM_SessionStepAccept(benchmark::State& state) {
  // Every step accepted: commit + retrain-keep + incremental refresh of the
  // base population, column moments, distance and kNN index. The delta vs
  // BM_SessionStepReject is the full accept-path maintenance cost.
  const auto& data = adult(1000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto learner = make_learner(LearnerKind::kRF, 42, true);
  const auto engine = Engine::Builder()
                          .rules(frs)
                          .eta(20)
                          .selection(SelectionStrategy::kIp)
                          .acceptance(std::make_shared<AlwaysAcceptPolicy>())
                          .build()
                          .value();
  auto session = engine.open(data, *learner).value();
  for (auto _ : state) {
    if (session.finished() || session.progress().instances_added > 200) {
      state.PauseTiming();
      session = engine.open(data, *learner).value();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(session.step().status);
  }
}
BENCHMARK(BM_SessionStepAccept);

void BM_SessionStepReject(benchmark::State& state) {
  // Every step rejected: stage + retrain + rollback, with the workspace
  // serving selection from its caches (the reject fast-path the session
  // workspace exists for) — D̂ never grows, so no recycling heuristics.
  const auto& data = adult(1000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto learner = make_learner(LearnerKind::kRF, 42, true);
  const auto engine = Engine::Builder()
                          .rules(frs)
                          .eta(20)
                          .selection(SelectionStrategy::kIp)
                          .acceptance(std::make_shared<NeverAcceptPolicy>())
                          .build()
                          .value();
  auto session = engine.open(data, *learner).value();
  for (auto _ : state) {
    if (session.finished()) {
      state.PauseTiming();
      session = engine.open(data, *learner).value();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(session.step().status);
  }
}
BENCHMARK(BM_SessionStepReject);

void scenario_replay(benchmark::State& state, const char* name) {
  // Whole-workload replay through run_scenario (generator → engine →
  // rules → expected-outcome check), amortised per engine step via
  // items_processed. Recorded in BENCH_micro.json as a trajectory baseline
  // for the three scenario families; not strict-gated.
  const ScenarioSpec spec = make_named_scenario(name).value();
  ScenarioRunOptions options;
  options.seed = 42;
  std::int64_t steps = 0;
  for (auto _ : state) {
    auto report = run_scenario(spec, options);
    if (!report) {
      state.SetLabel(report.error().message);
      break;
    }
    steps += static_cast<std::int64_t>(report->iterations_run);
    benchmark::DoNotOptimize(report->final_j_bar);
  }
  state.SetItemsProcessed(steps);
}

void BM_ScenarioStepMulticlass(benchmark::State& state) {
  scenario_replay(state, "multiclass_wine");
}
BENCHMARK(BM_ScenarioStepMulticlass)->Name("BM_ScenarioStep/multiclass");

void BM_ScenarioStepDrift(benchmark::State& state) {
  scenario_replay(state, "drift_adult");
}
BENCHMARK(BM_ScenarioStepDrift)->Name("BM_ScenarioStep/drift");

void BM_ScenarioStepFairness(benchmark::State& state) {
  scenario_replay(state, "fairness_adult");
}
BENCHMARK(BM_ScenarioStepFairness)->Name("BM_ScenarioStep/fairness");

void BM_SnapshotSave(benchmark::State& state) {
  // Serialise a live mid-edit session to checkpoint JSON (the periodic
  // write the frote_run driver performs with --checkpoint-every): dataset
  // rows dominate — this is the cost of durability per interval.
  const auto& data = adult(1000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto learner = make_learner(LearnerKind::kRF, 42, true);
  const auto engine = Engine::Builder().rules(frs).eta(20).build().value();
  auto session = engine.open(data, *learner).value();
  for (int i = 0; i < 3; ++i) session.step();
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.snapshot().to_json_text().size());
  }
}
BENCHMARK(BM_SnapshotSave);

void BM_SnapshotRestore(benchmark::State& state) {
  // Parse + restore: rebuild D̂ from JSON, retrain the model, rebuild the
  // base population and workspace, and verify Ĵ̄ — the full
  // interrupt-to-stepping recovery latency (retraining dominates).
  const auto& data = adult(1000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto learner = make_learner(LearnerKind::kRF, 42, true);
  const auto engine = Engine::Builder().rules(frs).eta(20).build().value();
  auto session = engine.open(data, *learner).value();
  for (int i = 0; i < 3; ++i) session.step();
  const std::string text = session.snapshot().to_json_text();
  for (auto _ : state) {
    auto checkpoint = SessionCheckpoint::parse(text).value();
    auto restored = Session::restore(engine, *learner, checkpoint).value();
    benchmark::DoNotOptimize(restored.finished());
  }
}
BENCHMARK(BM_SnapshotRestore);

#ifdef FROTE_SERVE_BINARY
// Serving-layer costs, measured against the real frote_serve binary via
// the same spawn/pipe harness the contract tests use. Compare with the
// in-process rows: BM_ServeRequest vs BM_SessionStep isolates the
// protocol + transport tax of a served step request, and
// BM_ServeEvictRestore vs BM_ServeRequest isolates the spool-write +
// restore (retraining-dominated, cf. BM_SnapshotRestore) added when the
// pool evicts the session between every request.

/// A daemon with one session stepped to completion (responses stay small
/// and per-iteration work stays constant), spawned once per process.
frote::testing::ServeProcess& serve_daemon(bool evict_every_request) {
  static auto spawn = [](bool evict) {
    namespace fs = std::filesystem;
    // Scratch lives next to the daemon binary (inside the build tree), so
    // running the bench from the source root never litters the checkout.
    const fs::path dir = fs::path(FROTE_SERVE_BINARY).parent_path() /
                         "bench_serve_scratch" / (evict ? "evict" : "plain");
    fs::remove_all(dir);
    fs::create_directories(dir);
    const fs::path csv = dir / "train.csv";
    frote::testing::write_threshold_csv(csv.string());
    frote::testing::ServeProcess::Options options;
    if (evict) {
      options.args = {"--spool", (dir / "spool").string(),
                      "--evict-every-request"};
    }
    auto daemon = std::make_unique<frote::testing::ServeProcess>(options);
    daemon->request(frote::testing::create_line(
        "c", frote::testing::serve_spec(csv.string())));
    daemon->request(frote::testing::step_line("warm", "s-000001", 50));
    return daemon;
  };
  static auto plain = spawn(false);
  static auto evicting = spawn(true);
  return evict_every_request ? *evicting : *plain;
}

void BM_ServeRequest(benchmark::State& state) {
  auto& daemon = serve_daemon(false);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const std::string response =
        daemon.request(frote::testing::step_line("b", "s-000001"));
    bytes += response.size();
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_ServeRequest);

void BM_ServeEvictRestore(benchmark::State& state) {
  auto& daemon = serve_daemon(true);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const std::string response =
        daemon.request(frote::testing::step_line("b", "s-000001"));
    bytes += response.size();
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_ServeEvictRestore);
#endif  // FROTE_SERVE_BINARY

}  // namespace

BENCHMARK_MAIN();
