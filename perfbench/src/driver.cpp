// frote_perfbench — the measurement side of the FROTE benchmark.
//
// Two modes, both driven by perfbench/run.py, which owns workload
// definitions, statistics and the result line:
//
//   frote_perfbench edit --scenario FILE --seed N --seconds T --edits E
//                        [--part P --parts Q] --trace 0|1 --out FILE
//     Of a run's E seeded static edits (a ScenarioSpec document resolved
//     per edit with a derived seed), runs those with index P mod Q
//     round-robin for T seconds, each at least once, and writes raw
//     samples: the set-up time, edit and step wall times, digests, Ĵ̄.
//     With --trace 1 it alternates untraced edits with edits whose
//     selector, generator, learner and acceptance policy are wrapped in
//     timing decorators, and adds direct probes of the kNN, model and
//     checkpoint calls on the workload's input.
//
//   frote_perfbench replay --script FILE --out FILE [--spool DIR]
//                          [--max-live N] [--workers W]
//     Replays a recorded JSON-RPC request script against an in-process
//     SessionPool and writes each request's wall time and response. With
//     one worker the script's global order is kept (the eviction pattern
//     matches the daemon's); with more, each session's requests keep their
//     order but different sessions run concurrently.
//
// Everything is reached through the library's public headers; nothing
// here changes what the library computes.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "frote/frote_api.hpp"
#include "frote/util/hash.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using frote::JsonValue;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void die(const std::string& message) {
  std::cerr << "frote_perfbench: " << message << "\n";
  std::exit(2);
}

template <typename T>
T take(frote::Expected<T, frote::FroteError> value, const char* what) {
  if (!value) die(std::string(what) + ": " + value.error().message);
  return std::move(*value);
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_json(const std::string& path, const JsonValue& value) {
  std::ofstream out(path, std::ios::binary);
  out << frote::json_dump(value) << "\n";
  if (!out) die("cannot write " + path);
}

/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// The session pool's D̂ digest, recomputed over the public Dataset
/// accessors with the same walk and byte order, so edit digests and
/// session.result digests witness the same quantity.
std::string dataset_digest(const frote::Dataset& data) {
  frote::Fnv1a64 h;
  h.update_u64(data.size());
  h.update_u64(data.num_features());
  for (std::size_t i = 0; i < data.size(); ++i) {
    h.update_u64(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(data.label(i))));
    h.update_u64(data.row_id(i));
    for (const double value : data.row(i)) {
      h.update_u64(std::bit_cast<std::uint64_t>(value));
    }
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(h.digest()));
  return buffer;
}

JsonValue json_list(const std::vector<double>& values) {
  JsonValue out = JsonValue::array();
  for (const double v : values) out.push_back(v);
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------------------
// Traced components. Each decorator forwards to the component the Builder
// would have made and stamps the current step's record on entry and exit.

struct StepRecord {
  Clock::time_point start, select0, select1, generate0, generate1, update0,
      update1, gate0, observed, end;
  bool selected = false, generated = false, updated = false, gated = false,
       notified = false;
  frote::StepStatus status = frote::StepStatus::kFinished;
};

struct Tracer {
  StepRecord current;
  std::vector<double> train_ms;
};

class TracedSelector : public frote::BaseInstanceSelector {
 public:
  TracedSelector(std::shared_ptr<const frote::BaseInstanceSelector> inner,
                 Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  std::vector<frote::SelectedInstance> select(
      const frote::Dataset& data, const frote::BasePopulation& bp,
      const frote::Model& model, std::size_t eta,
      frote::Rng& rng) const override {
    return select(data, bp, model, eta, rng, nullptr);
  }
  std::vector<frote::SelectedInstance> select(
      const frote::Dataset& data, const frote::BasePopulation& bp,
      const frote::Model& model, std::size_t eta, frote::Rng& rng,
      frote::SessionWorkspace* workspace) const override {
    tracer_->current.select0 = Clock::now();
    auto out = inner_->select(data, bp, model, eta, rng, workspace);
    tracer_->current.select1 = Clock::now();
    tracer_->current.selected = true;
    return out;
  }

 private:
  std::shared_ptr<const frote::BaseInstanceSelector> inner_;
  Tracer* tracer_;
};

class TracedGenerator : public frote::InstanceGenerator {
 public:
  TracedGenerator(std::shared_ptr<const frote::InstanceGenerator> inner,
                  Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  frote::Dataset generate(const frote::GenerationContext& ctx,
                          const std::vector<frote::SelectedInstance>& selected,
                          frote::Rng& rng) const override {
    tracer_->current.generate0 = Clock::now();
    frote::Dataset out = inner_->generate(ctx, selected, rng);
    tracer_->current.generate1 = Clock::now();
    tracer_->current.generated = true;
    return out;
  }

 private:
  std::shared_ptr<const frote::InstanceGenerator> inner_;
  Tracer* tracer_;
};

class TracedLearner : public frote::Learner {
 public:
  TracedLearner(const frote::Learner& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  std::unique_ptr<frote::Model> train(
      const frote::Dataset& data) const override {
    const auto t0 = Clock::now();
    auto model = inner_.train(data);
    tracer_->train_ms.push_back(ms_between(t0, Clock::now()));
    return model;
  }
  std::unique_ptr<frote::Model> update(const frote::Model& previous,
                                       const frote::Dataset& data,
                                       std::size_t trained_rows)
      const override {
    tracer_->current.update0 = Clock::now();
    auto model = inner_.update(previous, data, trained_rows);
    tracer_->current.update1 = Clock::now();
    tracer_->current.updated = true;
    return model;
  }
  std::string name() const override { return inner_.name(); }

 private:
  const frote::Learner& inner_;
  Tracer* tracer_;
};

class TracedAcceptance : public frote::AcceptancePolicy {
 public:
  TracedAcceptance(std::shared_ptr<const frote::AcceptancePolicy> inner,
                   Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  bool accept(const frote::AcceptanceContext& ctx) const override {
    tracer_->current.gate0 = Clock::now();
    tracer_->current.gated = true;
    return inner_->accept(ctx);
  }

 private:
  std::shared_ptr<const frote::AcceptancePolicy> inner_;
  Tracer* tracer_;
};

class TracingObserver : public frote::ProgressObserver {
 public:
  explicit TracingObserver(Tracer* tracer) : tracer_(tracer) {}
  void on_step(const frote::StepReport& report) override {
    tracer_->current.observed = Clock::now();
    tracer_->current.notified = true;
    tracer_->current.status = report.status;
  }

 private:
  Tracer* tracer_;
};

// ---------------------------------------------------------------------------
// edit mode

struct Args {
  std::map<std::string, std::string> values;
  std::string get(const std::string& key, const std::string& fallback = {})
      const {
    const auto it = values.find(key);
    if (it != values.end()) return it->second;
    if (fallback.empty()) die("missing --" + key);
    return fallback;
  }
  std::uint64_t num(const std::string& key, const std::string& fallback = {})
      const {
    return std::stoull(get(key, fallback));
  }
};

/// One resolved edit: the inputs a user hands the library.
struct EditInputs {
  std::size_t id = 0;  // edit index within the run; seeds derive from it
  frote::ScenarioSpec scenario;
  frote::Dataset data;
  std::unique_ptr<frote::Learner> learner;
  std::unique_ptr<frote::Engine> engine;
};

std::vector<EditInputs> set_up(const std::string& scenario_text,
                               std::uint64_t seed,
                               const std::vector<std::size_t>& ids) {
  const frote::ScenarioSpec base =
      take(frote::ScenarioSpec::parse(scenario_text), "scenario");
  if (base.kind != "static") die("edit workloads need a static scenario");
  std::vector<EditInputs> out;
  out.reserve(ids.size());
  for (const std::size_t id : ids) {
    frote::ScenarioRunOptions options;
    options.seed = frote::derive_seed(seed, id);
    EditInputs inputs;
    inputs.id = id;
    inputs.scenario = take(frote::resolve_scenario(base, options), "resolve");
    inputs.data =
        take(frote::generate_dataset(inputs.scenario.generator), "generate");
    inputs.learner =
        take(frote::make_spec_learner(inputs.scenario.engine), "learner");
    auto builder = take(frote::Engine::Builder::from_spec(
                            inputs.scenario.engine, inputs.data.schema()),
                        "from_spec");
    inputs.engine = std::make_unique<frote::Engine>(
        take(builder.build(), "engine"));
    out.push_back(std::move(inputs));
  }
  return out;
}

/// The same engine with every stage wrapped. Components are made exactly
/// as Engine::Builder::build() makes them: the selector by registry name
/// with the engine's k, rule set and thread count.
frote::Engine traced_engine(const EditInputs& inputs, Tracer* tracer) {
  const frote::FroteConfig& config = inputs.engine->config();
  frote::SelectorSpec selector_spec;
  selector_spec.k = config.k;
  selector_spec.frs = &inputs.engine->rules();
  selector_spec.threads = config.threads;
  auto selector = take(frote::make_named_selector(
                           inputs.scenario.engine.selector, selector_spec),
                       "selector");
  std::shared_ptr<const frote::AcceptancePolicy> gate;
  if (config.accept_always) {
    gate = std::make_shared<const frote::AlwaysAcceptPolicy>();
  } else {
    gate = std::make_shared<const frote::JHatImprovementPolicy>();
  }
  auto builder = take(frote::Engine::Builder::from_spec(
                          inputs.scenario.engine, inputs.data.schema()),
                      "from_spec");
  builder.selector(std::make_shared<TracedSelector>(selector, tracer))
      .generator(std::make_shared<TracedGenerator>(
          std::make_shared<const frote::SmoteNcInstanceGenerator>(), tracer))
      .acceptance(std::make_shared<TracedAcceptance>(gate, tracer))
      .observer(std::make_shared<TracingObserver>(tracer));
  return take(builder.build(), "traced engine");
}

struct EditOutcome {
  double seconds = 0.0;
  double open_ms = 0.0;
  std::string digest;
  double initial_j_bar = 0.0;
  double best_j_bar = 0.0;
  std::size_t instances_added = 0;
  std::size_t iterations = 0;
  std::size_t accepted = 0;
  std::uint64_t neighborhood_queries = 0;
  std::vector<double> step_ms;
  std::vector<StepRecord> steps;  // traced edits only
};

EditOutcome run_edit(const frote::Engine& engine, const frote::Dataset& data,
                     const frote::Learner& learner, Tracer* tracer) {
  EditOutcome out;
  const auto t0 = Clock::now();
  frote::Session session = take(engine.open(data, learner), "open");
  out.open_ms = ms_between(t0, Clock::now());
  while (!session.finished()) {
    if (tracer != nullptr) tracer->current = StepRecord{};
    const auto s0 = Clock::now();
    const frote::StepReport report = session.step();
    const auto s1 = Clock::now();
    out.step_ms.push_back(ms_between(s0, s1));
    if (tracer != nullptr) {
      tracer->current.start = s0;
      tracer->current.end = s1;
      out.steps.push_back(tracer->current);
    }
    if (report.terminal()) break;
  }
  out.initial_j_bar = session.trace().front().train_j_hat_bar;
  out.best_j_bar = session.best_j_hat_bar();
  out.neighborhood_queries = session.workspace().neighborhood_queries();
  frote::FroteResult result = std::move(session).result();
  out.seconds = ms_between(t0, Clock::now()) / 1000.0;
  out.digest = dataset_digest(result.augmented);
  out.instances_added = result.instances_added;
  out.iterations = result.iterations_run;
  out.accepted = result.iterations_accepted;
  return out;
}

/// The scenario's expected-outcome bundle, checked against one edit.
std::vector<std::string> expected_misses(const frote::ExpectedOutcome& want,
                                         const EditOutcome& got) {
  std::vector<std::string> misses;
  if (want.min_final_j_bar && got.best_j_bar < *want.min_final_j_bar) {
    misses.push_back("final_j_bar below min_final_j_bar");
  }
  if (want.min_j_bar_gain &&
      got.best_j_bar - got.initial_j_bar < *want.min_j_bar_gain) {
    misses.push_back("j_bar gain below min_j_bar_gain");
  }
  if (want.min_instances_added &&
      got.instances_added < *want.min_instances_added) {
    misses.push_back("instances_added below min_instances_added");
  }
  return misses;
}

/// Step record → its parts in ms. Parts that did not happen are 0; the
/// unattributed remainder (binding, staging, notification) closes the sum.
JsonValue step_parts(const StepRecord& r, const char* kind) {
  JsonValue out = JsonValue::object();
  const double total = ms_between(r.start, r.end);
  double select = 0, generate = 0, update = 0, jhat = 0, gate = 0;
  if (r.selected) select = ms_between(r.select0, r.select1);
  if (r.generated) generate = ms_between(r.generate0, r.generate1);
  if (r.updated) update = ms_between(r.update0, r.update1);
  if (r.updated && r.gated) jhat = ms_between(r.update1, r.gate0);
  if (r.gated && r.notified) gate = ms_between(r.gate0, r.observed);
  const bool accepted = r.status == frote::StepStatus::kAccepted;
  out.set("kind", kind);
  out.set("status", accepted ? "accepted"
                    : r.status == frote::StepStatus::kRejected ? "rejected"
                                                               : "other");
  out.set("step", total);
  out.set("select", select);
  out.set("generate", generate);
  out.set("update", update);
  out.set("jhat", jhat);
  out.set(accepted ? "commit" : "rollback", gate);
  out.set("unattributed", total - select - generate - update - jhat - gate);
  return out;
}

/// Direct probes of single-layer public calls on one edit's input.
JsonValue probe_layers(const EditInputs& inputs) {
  const frote::Dataset& data = inputs.data;
  const frote::FroteConfig& config = inputs.engine->config();
  const int threads = config.threads;
  constexpr int kReps = 5;
  std::vector<double> fit, build, query, predict;
  frote::MixedDistance distance;
  for (int r = 0; r < kReps; ++r) {
    auto t0 = Clock::now();
    distance = frote::MixedDistance::fit(data);
    fit.push_back(ms_between(t0, Clock::now()));
  }
  frote::KnnIndexConfig index_config;
  index_config.threads = threads;
  std::unique_ptr<frote::KnnIndex> index;
  for (int r = 0; r < kReps; ++r) {
    auto t0 = Clock::now();
    index = frote::make_knn_index(data, distance, {}, index_config);
    build.push_back(ms_between(t0, Clock::now()));
  }
  const std::size_t stride = std::max<std::size_t>(1, data.size() / 256);
  std::size_t sink = 0;
  for (std::size_t i = 0; i < data.size(); i += stride) {
    auto t0 = Clock::now();
    sink += index->query(data.row(i), config.k + 1).size();
    query.push_back(ms_between(t0, Clock::now()) * 1000.0);
  }
  const auto model = inputs.learner->train(data);
  for (int r = 0; r < kReps; ++r) {
    auto t0 = Clock::now();
    sink += model->predict_all(data, threads).size();
    predict.push_back(ms_between(t0, Clock::now()));
  }
  if (sink == 0) die("probe produced nothing");

  // Checkpoint round trip of a session three steps in.
  std::vector<double> save, parse, restore;
  double kb = 0.0;
  frote::Session session =
      take(inputs.engine->open(data, *inputs.learner), "open");
  for (int s = 0; s < 3 && !session.finished(); ++s) session.step();
  const std::string before = dataset_digest(session.augmented());
  for (int r = 0; r < 3; ++r) {
    auto t0 = Clock::now();
    const std::string text = session.snapshot().to_json_text();
    save.push_back(ms_between(t0, Clock::now()));
    kb = static_cast<double>(text.size()) / 1024.0;
    t0 = Clock::now();
    auto checkpoint = take(frote::SessionCheckpoint::parse(text), "parse");
    parse.push_back(ms_between(t0, Clock::now()));
    t0 = Clock::now();
    frote::Session restored = take(
        frote::Session::restore(*inputs.engine, *inputs.learner, checkpoint),
        "restore");
    restore.push_back(ms_between(t0, Clock::now()));
    if (dataset_digest(restored.augmented()) != before) {
      die("restored session differs from its snapshot");
    }
  }
  JsonValue out = JsonValue::object();
  out.set("knn.fit_ms", median(fit));
  out.set("knn.build_ms", median(build));
  out.set("knn.query_us", median(query));
  out.set("ml.predict_all_ms", median(predict));
  out.set("core.checkpoint_save_ms", median(save));
  out.set("core.checkpoint_parse_ms", median(parse));
  out.set("core.checkpoint_restore_ms", median(restore));
  out.set("core.checkpoint_kb", kb);
  return out;
}

JsonValue outcome_json(std::size_t edit, bool traced, const EditOutcome& o,
                       const std::vector<std::string>& misses) {
  JsonValue out = JsonValue::object();
  out.set("edit", edit);
  out.set("traced", traced);
  out.set("seconds", o.seconds);
  out.set("open_ms", o.open_ms);
  out.set("digest", o.digest);
  out.set("initial_j_bar", o.initial_j_bar);
  out.set("best_j_bar", o.best_j_bar);
  out.set("instances_added", o.instances_added);
  out.set("iterations", o.iterations);
  out.set("accepted", o.accepted);
  out.set("neighborhood_queries", o.neighborhood_queries);
  JsonValue miss_list = JsonValue::array();
  for (const auto& m : misses) miss_list.push_back(m);
  out.set("misses", std::move(miss_list));
  return out;
}

int edit_mode(const Args& args) {
  const std::string scenario_text = read_text(args.get("scenario"));
  const std::uint64_t seed = args.num("seed");
  const double seconds = std::stod(args.get("seconds"));
  const std::size_t edits = args.num("edits");
  const std::size_t part = args.num("part", "0");
  const std::size_t parts = args.num("parts", "1");
  const bool trace = args.get("trace", "0") == "1";

  // This process times edits part, part + parts, ... of the run's `edits`
  // seeded edits. Edit 0 also serves as the warm-up of every process, so
  // its digest is compared across processes.
  std::vector<std::size_t> ids = {0};
  for (std::size_t id = part; id < edits; id += parts) {
    if (id != 0) ids.push_back(id);
  }
  const std::size_t first_timed = part == 0 ? 0 : 1;

  // Set-up is everything before the first timed edit: the inputs, and one
  // untimed warm-up edit in which the thread pool, allocator and lazily
  // built state settle.
  const auto setup_start = Clock::now();
  std::vector<EditInputs> inputs = set_up(scenario_text, seed, ids);
  const EditOutcome warm_up = run_edit(*inputs.front().engine,
                                       inputs.front().data,
                                       *inputs.front().learner, nullptr);
  const double setup_s = ms_between(setup_start, Clock::now()) / 1000.0;

  JsonValue out = JsonValue::object();
  out.set("setup_s", setup_s);
  out.set("warm_up_digest", warm_up.digest);
  JsonValue runs = JsonValue::array();
  JsonValue steps = JsonValue::array();
  std::vector<double> step_ms;
  Tracer tracer;
  std::vector<frote::Engine> traced;
  std::vector<std::unique_ptr<TracedLearner>> traced_learners;
  if (trace) {
    out.set("probes", probe_layers(inputs.front()));
    for (const auto& in : inputs) {
      traced.push_back(traced_engine(in, &tracer));
      traced_learners.push_back(
          std::make_unique<TracedLearner>(*in.learner, &tracer));
    }
  }

  const auto start = Clock::now();
  const std::size_t timed = inputs.size() - first_timed;
  std::vector<std::size_t> untraced_count(inputs.size(), 0),
      traced_count(inputs.size(), 0);
  const auto needs_more = [&] {
    for (std::size_t i = first_timed; i < inputs.size(); ++i) {
      if (untraced_count[i] < 1 || (trace && traced_count[i] < 1)) return true;
    }
    return false;
  };
  // An edit starts only if it can finish inside the window at the pace of
  // the previous one, so a run's length stays close to --seconds.
  double last_ms = 0.0;
  for (std::size_t k = 0;
       needs_more() ||
       ms_between(start, Clock::now()) + last_ms <= seconds * 1000.0;
       ++k) {
    const std::size_t i = first_timed + (trace ? k / 2 : k) % timed;
    const bool traced_turn = trace && k % 2 == 1;
    const EditInputs& in = inputs[i];
    EditOutcome outcome;
    if (traced_turn) {
      tracer.train_ms.clear();
      outcome = run_edit(traced[i], in.data, *traced_learners[i], &tracer);
      ++traced_count[i];
      for (std::size_t s = 0; s < outcome.steps.size(); ++s) {
        const char* kind = s == 0 ? "cold"
                           : outcome.steps[s - 1].status ==
                                   frote::StepStatus::kAccepted
                               ? "after_accept"
                               : "warm";
        JsonValue parts = step_parts(outcome.steps[s], kind);
        parts.set("edit", in.id);
        steps.push_back(std::move(parts));
      }
    } else {
      outcome = run_edit(*in.engine, in.data, *in.learner, nullptr);
      ++untraced_count[i];
      step_ms.insert(step_ms.end(), outcome.step_ms.begin(),
                     outcome.step_ms.end());
    }
    last_ms = outcome.seconds * 1000.0;
    JsonValue row = outcome_json(
        in.id, traced_turn, outcome, expected_misses(in.scenario.expected, outcome));
    if (traced_turn) row.set("train_ms", json_list(tracer.train_ms));
    runs.push_back(std::move(row));
  }
  out.set("measured_s", ms_between(start, Clock::now()) / 1000.0);
  out.set("edits", std::move(runs));
  out.set("step_ms", json_list(step_ms));
  if (trace) out.set("steps", std::move(steps));
  out.set("peak_rss_mb", peak_rss_mb());
  write_json(args.get("out"), out);
  return 0;
}

// ---------------------------------------------------------------------------
// replay mode

struct ScriptLine {
  std::string op;
  std::string session;  // script-side id (create: the id the daemon gave)
  JsonValue spec;
  std::size_t steps = 1;
};

JsonValue step_json(const frote::SessionStepOutcome& o) {
  JsonValue out = JsonValue::object();
  out.set("steps_executed", o.steps_executed);
  out.set("accepted", o.last_accepted);
  out.set("finished", o.finished);
  out.set("iterations_run", o.iterations_run);
  out.set("iterations_accepted", o.iterations_accepted);
  out.set("instances_added", o.instances_added);
  out.set("rows", o.rows);
  out.set("j_bar", o.j_bar);
  return out;
}

std::uint64_t stat(const frote::SessionPool& pool, const char* key) {
  const JsonValue stats = pool.stats();
  const JsonValue* v = stats.find(key);
  return v == nullptr ? 0 : v->as_uint64();
}

int replay_mode(const Args& args) {
  std::vector<ScriptLine> script;
  {
    std::istringstream lines(read_text(args.get("script")));
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      const JsonValue json = take(frote::json_parse(line), "script line");
      ScriptLine entry;
      entry.op = json.find("op")->as_string();
      entry.session = json.find("session")->as_string();
      if (const JsonValue* spec = json.find("spec")) entry.spec = *spec;
      if (const JsonValue* steps = json.find("steps")) {
        entry.steps = steps->as_uint64();
      }
      script.push_back(std::move(entry));
    }
  }
  frote::SessionPoolConfig config;
  config.spool_dir = args.get("spool", "-");
  if (config.spool_dir == "-") config.spool_dir.clear();
  config.max_live = args.num("max-live", "0");
  const std::size_t workers = args.num("workers", "1");

  frote::SessionPool pool(config);
  std::vector<JsonValue> responses(script.size());
  std::vector<double> elapsed(script.size(), 0.0);
  std::vector<int> restored(script.size(), 0);
  std::vector<std::string> errors;
  std::mutex errors_mutex;

  // Requests grouped by session, in script order within each group.
  std::map<std::string, std::vector<std::size_t>> by_session;
  std::vector<std::string> order;
  for (std::size_t i = 0; i < script.size(); ++i) {
    auto& group = by_session[script[i].session];
    if (group.empty()) order.push_back(script[i].session);
    group.push_back(i);
  }
  std::map<std::string, std::string> live_id;  // script id → pool id
  std::mutex id_mutex;

  const auto execute = [&](std::size_t i) {
    const ScriptLine& line = script[i];
    std::string id;
    if (line.op != "create") {
      std::lock_guard<std::mutex> lock(id_mutex);
      id = live_id.at(line.session);
    }
    const bool serial = workers == 1;
    const std::uint64_t restores_before = serial ? stat(pool, "restores") : 0;
    const auto t0 = Clock::now();
    JsonValue response;
    std::string error;
    if (line.op == "create") {
      auto spec = frote::EngineSpec::from_json(line.spec);
      if (!spec) {
        error = spec.error().message;
      } else if (auto made = pool.create(*spec)) {
        response = JsonValue(*made);
        std::lock_guard<std::mutex> lock(id_mutex);
        live_id[line.session] = *made;
      } else {
        error = made.error().message;
      }
    } else if (line.op == "step") {
      auto outcome = pool.step(id, line.steps);
      if (outcome) response = step_json(*outcome);
      else error = outcome.error().message;
    } else {
      frote::Expected<JsonValue, frote::FroteError> got =
          line.op == "result"     ? pool.result(id)
          : line.op == "snapshot" ? pool.snapshot(id)
          : line.op == "close"    ? pool.close(id)
                                  : frote::Expected<JsonValue, frote::FroteError>(
                                        frote::FroteError::invalid_argument(
                                            "unknown op " + line.op));
      if (got) response = std::move(*got);
      else error = got.error().message;
    }
    elapsed[i] = ms_between(t0, Clock::now());
    if (serial) restored[i] = stat(pool, "restores") > restores_before;
    if (line.op == "snapshot" && error.empty()) {
      // The checkpoint document itself is large; its size is what is kept.
      response = JsonValue(
          static_cast<std::uint64_t>(frote::json_dump(response).size()));
    }
    responses[i] = std::move(response);
    if (!error.empty()) {
      std::lock_guard<std::mutex> lock(errors_mutex);
      errors.push_back(line.op + " " + line.session + ": " + error);
    }
  };

  if (workers == 1) {
    for (std::size_t i = 0; i < script.size(); ++i) execute(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool_threads;
    for (std::size_t w = 0; w < workers; ++w) {
      pool_threads.emplace_back([&] {
        for (std::size_t g = next++; g < order.size(); g = next++) {
          for (const std::size_t i : by_session.at(order[g])) execute(i);
        }
      });
    }
    for (auto& t : pool_threads) t.join();
  }

  JsonValue out = JsonValue::object();
  JsonValue lines = JsonValue::array();
  for (std::size_t i = 0; i < script.size(); ++i) {
    JsonValue row = JsonValue::object();
    row.set("ms", elapsed[i]);
    row.set("restored", restored[i] != 0);
    row.set("response", std::move(responses[i]));
    lines.push_back(std::move(row));
  }
  JsonValue error_list = JsonValue::array();
  for (const auto& e : errors) error_list.push_back(e);
  out.set("lines", std::move(lines));
  out.set("errors", std::move(error_list));
  write_json(args.get("out"), out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) die("usage: frote_perfbench edit|replay --key value ...");
  const std::string mode = argv[1];
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) die("bad argument " + key);
    args.values[key.substr(2)] = argv[i + 1];
  }
  try {
    if (mode == "edit") return edit_mode(args);
    if (mode == "replay") return replay_mode(args);
  } catch (const std::exception& e) {
    die(e.what());
  }
  die("unknown mode " + mode);
}
