// frote/frote_api.hpp — umbrella header for the FROTE library.
//
// Include this single header instead of reaching into core/*, ml/*, rules/*
// piecemeal; it is the supported public surface for applications, examples,
// and external consumers of the installed CMake package (frote::frote).
//
// ---------------------------------------------------------------------------
// MIGRATION — from the monolithic frote_edit() to Engine/Session
// ---------------------------------------------------------------------------
// frote_edit(data, learner, frs, config, on_accept) still works and is
// bit-identical for the same seed, but it is now a shim. One behavioural
// narrowing: the Builder's typed validation rejects degenerate configs the
// old code silently tolerated (k == 0, rule_confidence outside [0, 1]), so
// those now throw frote::Error instead of running with unspecified
// behaviour. The composable form:
//
//   auto engine  = frote::Engine::Builder()
//                      .rules(frs)                    // FeedbackRuleSet F
//                      .tau(30).q(0.5).k(5).seed(42)  // scalar knobs
//                      .build().value();              // Expected<Engine,...>
//   auto session = engine.open(train, learner).value();
//   session.run();                                    // or step() manually
//   frote::FroteResult result = std::move(session).result();
//
// Old FroteConfig field / callback      → new component or builder call
//   tau, q, k, eta, seed                → Builder::tau/q/k/eta/seed
//   mod_strategy                        → Builder::mod_strategy
//   selection                           → Builder::selection
//   custom_selector                     → Builder::selector(...)
//   rule_confidence                     → Builder::rule_confidence
//   accept_always = true                → Builder::acceptance(
//                                           make_shared<AlwaysAcceptPolicy>())
//                                         (or Builder::accept_always(true))
//   AcceptCallback on_accept            → ProgressObserver::on_accept via
//                                         Builder::observer(...) or
//                                         Session::add_observer(...)
//                                         (CallbackObserver wraps lambdas)
//   FroteResult::trace                  → still populated; live access via
//                                         ProgressObserver::on_step
//   loop termination (τ / q·|D|)        → StoppingCriterion; default
//                                         BudgetStoppingCriterion reproduces
//                                         the old bounds, PlateauStopping-
//                                         Criterion / AnyOfStoppingCriterion
//                                         compose extra cut-offs
//   Builder::from_config(old_config) maps an existing FroteConfig wholesale.
//
// Named components: make_named_learner("rf", ...) / make_named_selector(
// "ip", ...) in core/registry.hpp resolve the string names shared by the CLI
// and the experiment harness.
//
// Threading: Engine::Builder::threads(n), the learner configs' `threads`
// fields (or LearnerSpec::threads through the registry), and the
// FROTE_NUM_THREADS environment variable parallelise the retrain/eval hot
// paths. Output is bit-identical for every thread count — see
// util/parallel.hpp and the README's "Performance & threading" section.
//
// PR 4 (incremental session workspace) — signature/field moves:
//   GenerationContext                    → gained `SessionWorkspace*
//                                          workspace` (defaulted nullptr;
//                                          aggregate initializers keep
//                                          compiling) and GenerateConfig
//                                          gained `threads`
//   BaseInstanceSelector                 → new non-pure overload
//                                          select(..., SessionWorkspace*);
//                                          existing subclasses inherit the
//                                          delegating default and keep
//                                          working unchanged
//   evaluate_objective / train_j_hat_bar → new overloads taking
//                                          (PredictionCache&, model_stamp);
//                                          the old signatures are unchanged
//   KnnIndex                             → new try_append(data, distance)
//                                          (default: refuse, caller
//                                          rebuilds); BruteKnn absorbs
//                                          appended rows
//   MixedDistance                        → new from_moments(schema,
//                                          ColumnMoments) and same_scales()
//   Dataset                              → staged appends (stage_rows/
//                                          commit/rollback/reserve_rows),
//                                          change tracking (uid/version/
//                                          append_epoch/row_id), raw_values/
//                                          raw_labels; *copies now take a
//                                          fresh uid and are counted by
//                                          Dataset::copy_count()*
//   Session                              → exposes workspace(); internally
//                                          stages candidate batches in
//                                          place (no per-step dataset copy)
//
// PR 5 (declarative run specs + checkpointable sessions) — additions:
//   in-process Builder calls only        → EngineSpec (core/spec.hpp): the
//                                          run as a JSON document;
//                                          Engine::Builder::from_spec(spec,
//                                          schema) resolves it through the
//                                          registry, Engine::to_spec()
//                                          inverts it losslessly
//   Builder::selection(enum) /           → Builder::selector("ip") — any
//   Builder::selector(instance)            registry name, resolved at
//                                          build() against the engine's own
//                                          rule set (online-proxy included;
//                                          no dangling rule-set references)
//   hand-built StoppingCriterion trees   → StoppingSpec {budget | plateau |
//                                          any_of} via make_spec_stopping
//   long-lived in-process Session only   → Session::snapshot() /
//                                          Session::restore(engine,
//                                          learner, ckpt): serialisable
//                                          checkpoints; resume is
//                                          bit-identical to an
//                                          uninterrupted run
//   per-experiment driver loops          → RunPlan + execute_plan
//                                          (core/runplan.hpp) and the
//                                          frote_run CLI: declarative
//                                          learner/selector/seed grids run
//                                          concurrently with per-run
//                                          artifacts and --resume
//   FeedbackRule::to_string              → numeric thresholds/probabilities
//                                          now print with shortest
//                                          round-trip precision (rule text
//                                          is a persistence format; parse ∘
//                                          print is exact)
//   (new) util/json.hpp                  → vendored strict RFC 8259 JSON
//                                          with bit-exact double round-trip
//
// PR 6 (frote_serve daemon + session pool) — additions:
//   one Session per process              → SessionPool (core/
//                                          session_pool.hpp): a multi-
//                                          tenant table of sessions, each
//                                          live in memory or LRU-evicted to
//                                          a checkpoint spool and restored
//                                          transparently (byte-identical
//                                          responses either way)
//   in-process API only                  → the frote_serve daemon: line-
//                                          delimited JSON-RPC 2.0 over
//                                          stdio or the vendored HTTP/1.1
//                                          listener (frote/net/http.hpp,
//                                          frote/net/jsonrpc.hpp); see
//                                          docs/DESIGN.md §7 for the wire
//                                          contract
//   runplan.cpp-local file helpers       → util/fsio.hpp:
//                                          write_file_atomic / read_file,
//                                          shared by the run driver and the
//                                          checkpoint spool
//
// PR 7 (sharded columnar data plane) — additions; all bit-identical to the
// flat layout for every geometry, thread and shard count:
//   one contiguous values vector         → ChunkStore (data/chunks.hpp):
//                                          sealed immutable chunks +
//                                          mutable tail behind Dataset;
//                                          Dataset::set_storage(
//                                          StorageOptions{chunk_rows,
//                                          mmap}), storage(), chunk_count(),
//                                          mapped_chunk_count();
//                                          raw_values() is now gated on
//                                          values_contiguous()
//   DatasetSpec                          → new `chunk_rows` / `mmap` fields
//                                          (absent from JSON at defaults;
//                                          old specs round-trip unchanged),
//                                          applied by load_spec_dataset and
//                                          recorded in checkpoints
//   KnnIndex::query (virtual)            → non-virtual query() over the new
//                                          virtual query_squared(); engines
//                                          compose on squared distances so
//                                          merging cannot re-round a tie;
//                                          new try_refit(data, distance)
//                                          for same-rows rescale
//   make_knn_index two-tier choice       → third tier: ShardedKnnIndex
//                                          (knn/sharded.hpp) past
//                                          KnnIndexConfig::shard_min_rows;
//                                          config gains shard_min_rows /
//                                          shard_target_rows / shards;
//                                          make_single_knn_index() is the
//                                          old chooser
//   server.stats counters only           → + per-session `sessions` array:
//                                          {session, state, rows, chunks}
//
// PR 8 (fault injection + crash-safe serving) — additions; the clean-path
// bytes of every artifact reader/writer are unchanged except that durable
// files carry a trailing integrity-footer line:
//   write_file_atomic (tmp+rename only)  → + fsync(file) before and
//                                          fsync(parent dir) after the
//                                          rename (crash-durable commit);
//                                          util/fsio.hpp also gains
//                                          write_file_durable /
//                                          read_file_validated (kOk,
//                                          kMissing, kCorrupt) /
//                                          quarantine_file — checkpoints
//                                          and the serve spool validate on
//                                          read, corrupt files move to
//                                          <name>.corrupt
//   (new) util/faultsim.hpp              → deterministic fault injection:
//                                          named points, nth=K / prob=P
//                                          schedules pure in (seed, point,
//                                          hit), fail/kill actions, armed
//                                          via FROTE_FAULTS or --faults;
//                                          disarmed cost is one relaxed
//                                          atomic load
//   (new) util/hash.hpp                  → Fnv1a64 shared by
//                                          dataset_digest and the
//                                          integrity footer
//   RpcErrorCode                         → + kSessionUnrecoverable (-32002)
//                                          and kOverloaded (-32005, error
//                                          data carries retry_after_ms);
//                                          rpc_error_line gains a data
//                                          overload
//   net::serve(handler)                  → net::serve(handler, HttpLimits
//                                          {max_body_bytes,
//                                          max_header_bytes,
//                                          read_timeout_ms}): 408 on
//                                          stalled reads, 431/413 on
//                                          oversized heads/bodies
//   SessionPool::Config                  → + max_sessions (admission cap;
//                                          max_live doubles as the cap
//                                          when there is no spool);
//                                          server.stats gains
//                                          spool_failures
//   RunPlanOptions                       → + retries (per-run restart with
//                                          deterministic backoff; also
//                                          frote_run --retries and
//                                          frote_serve --drive --retries)
//
// PR 9 (incremental learners) — the accept path is O(appended), not
// O(retrain); exact names stay bitwise exact (docs/DESIGN.md §10):
//   retrain-per-candidate: train(data)   → Learner::update(previous, data,
//                                          trained_rows); base-class default
//                                          is train(data), the RF override
//                                          clones trees whose replayed
//                                          bootstrap stream is provably
//                                          unchanged — update ≡ train
//                                          bitwise for exact learner names
//   (new) registry names                 → "lr_warm" / "gbdt_additive":
//                                          opt-in *approximate* warm starts
//                                          (previous weights / additive
//                                          rounds); exact names never
//                                          change behaviour
//   per-accept kNN re-query              → SessionWorkspace::neighborhoods():
//                                          certified, padded k+1 neighbor
//                                          lists that survive accepted appends
//                                          (decaying outside-distance bound;
//                                          failures fall back to real
//                                          queries); neighborhood_queries()
//                                          is the observable
//   SessionCheckpoint v1                 → v2: + model_updates +
//                                          dataset_digest; a verified digest
//                                          skips the restore-time Ĵ̄
//                                          recompute (mismatch falls back to
//                                          the v1 cross-check); v1 files
//                                          still parse
//   Session::restore(engine, l, ckpt)    → + overload taking
//                                          SessionRestoreOptions{warm_model,
//                                          warm_model_version}: installed
//                                          only when digest and version
//                                          match — pool evict/hydrate
//                                          round-trips retrain nothing;
//                                          Session gains model_updates() /
//                                          model_version() /
//                                          release_model() &&
//   server.stats sessions rows           → + accepts / rejects /
//                                          model_updates per session
//
// PR 10 (scenario registry) — whole workloads behind the spec path:
//   (new) core/scenario.hpp              → ScenarioSpec (format
//                                          "frote.scenario_spec"): generator
//                                          config + engine knobs + rule text
//                                          + optional drift schedule /
//                                          group report / expected-outcome
//                                          bundle in one JSON document;
//                                          run_scenario() replays it
//                                          deterministically into a
//                                          ScenarioReport (format
//                                          "frote.scenario_result", byte-
//                                          identical at every thread count)
//   ad-hoc workload wiring               → make_named_scenario /
//                                          register_scenario /
//                                          registered_scenario_names
//                                          (core/registry.hpp): a new
//                                          workload is a JSON document plus
//                                          one registry entry
//   DatasetSpec "synthetic" ad-hoc path  → GeneratorSpec is the one
//                                          synthesis path (load_spec_dataset
//                                          delegates to generate_dataset);
//                                          generators gain optional
//                                          label_noise / class_weights
//                                          overrides and dataset_schema()
//   RunPlan base-spec grids only         → grid.scenarios axis ("base"
//                                          becomes optional): scenario runs
//                                          write the resolved scenario
//                                          spec.json + ScenarioReport
//                                          result.json; RunPlan::Run gains
//                                          scenario / learner_override /
//                                          selector_override / seed
//   frote_serve spec-only creation       → session.create accepts
//                                          {"scenario": name, "seed": N}
//                                          (via scenario_session_spec); new
//                                          scenario.list / scenario.run
//                                          methods
//
// One exact kNN engine (the ball tree is gone) — removals; every
// neighbour list is bit-identical to before:
//   BallTreeKnn                          → BruteKnn, now a scan grouped by
//                                          categorical signature; build it
//                                          directly or via make_knn_index
//   BruteKnn(data, distance, indices,    → BruteKnn(data, distance,
//            threads)                    indices): one query runs on one
//                                          thread; parallelise across
//                                          queries instead
//   KnnIndexConfig::leaf_size /          → removed with the ball tree;
//   KnnIndexConfig::brute_crossover      → make_knn_index picks BruteKnn
//                                          below shard_min_rows
//   make_single_knn_index(data,          → make_single_knn_index(data,
//     distance, indices, config)         distance, indices)
//   GenerateConfig::threads              → removed (its only use was the
//                                          per-query BruteKnn fan-out)
//   detail::PackedRows::permute          → removed (no tree to reorder for)
// ---------------------------------------------------------------------------
#pragma once

// Core algorithm: Engine/Session, pipeline stages, the frote_edit shim,
// audit lineage and budget-inflection analysis. The declarative layer —
// EngineSpec run specs, session checkpoints, run plans — lives alongside.
#include "frote/core/audit.hpp"
#include "frote/core/base_population.hpp"
#include "frote/core/checkpoint.hpp"
#include "frote/core/engine.hpp"
#include "frote/core/frote.hpp"
#include "frote/core/generate.hpp"
#include "frote/core/inflection.hpp"
#include "frote/core/online_proxy.hpp"
#include "frote/core/runplan.hpp"
#include "frote/core/scenario.hpp"
#include "frote/core/selection.hpp"
#include "frote/core/session_pool.hpp"
#include "frote/core/spec.hpp"
#include "frote/core/stages.hpp"
#include "frote/core/workspace.hpp"

// Serving layer: the JSON-RPC envelope and the vendored HTTP transport
// behind tools/frote_serve (docs/DESIGN.md §7).
#include "frote/net/http.hpp"
#include "frote/net/jsonrpc.hpp"

// Data handling: schema-typed datasets, CSV I/O, splits, UCI-style
// generators.
#include "frote/data/csv.hpp"
#include "frote/data/dataset.hpp"
#include "frote/data/generators.hpp"
#include "frote/data/schema.hpp"
#include "frote/data/split.hpp"

// Black-box learners and bundled model implementations.
#include "frote/ml/decision_tree.hpp"
#include "frote/ml/gbdt.hpp"
#include "frote/ml/knn_classifier.hpp"
#include "frote/ml/logistic_regression.hpp"
#include "frote/ml/model.hpp"
#include "frote/ml/naive_bayes.hpp"
#include "frote/ml/random_forest.hpp"

// Feedback-rule language: predicates/clauses/rules, parsing, induction,
// perturbation, conflict resolution.
#include "frote/rules/induction.hpp"
#include "frote/rules/parser.hpp"
#include "frote/rules/perturb.hpp"
#include "frote/rules/rule.hpp"
#include "frote/rules/ruleset.hpp"

// Evaluation metrics and the Overlay baseline.
#include "frote/baselines/overlay.hpp"
#include "frote/metrics/metrics.hpp"

// Experiment harness, paper learner kinds, and the named-component registry.
#include "frote/exp/harness.hpp"
#include "frote/exp/learners.hpp"
#include "frote/core/registry.hpp"

// Utilities: typed errors/Expected, deterministic RNG, the deterministic
// parallel subsystem (FROTE_NUM_THREADS / Engine::Builder::threads — output
// is bit-identical for every thread count), text tables.
#include "frote/util/error.hpp"
#include "frote/util/json.hpp"
#include "frote/util/parallel.hpp"
#include "frote/util/rng.hpp"
#include "frote/util/table.hpp"
