// core/scenario: ScenarioSpec validation (malformed-document corpus with
// typed line:column parse errors), spec → scenario → to_json byte-equality,
// multi-class rule/metric/IP-selection contracts, deterministic scenario
// replay (drift snapshot/restore and thread-count invariance), and the
// registry + RunPlan extension surface — a scratch scenario registered from
// JSON runs through the grid driver with zero engine-code changes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "frote/core/base_population.hpp"
#include "frote/core/registry.hpp"
#include "frote/core/runplan.hpp"
#include "frote/core/scenario.hpp"
#include "frote/core/selection.hpp"
#include "frote/core/spec.hpp"
#include "frote/data/generators.hpp"
#include "frote/metrics/metrics.hpp"
#include "frote/rules/parser.hpp"
#include "frote/rules/ruleset.hpp"
#include "frote/util/rng.hpp"

namespace frote {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Malformed-spec corpus

/// A minimal valid static scenario over the Adult generator; corpus entries
/// are single-substring mutations of this document.
const char kBaseDoc[] = R"json({
  "format": "frote.scenario_spec", "version": 1,
  "name": "corpus",
  "kind": "static",
  "generator": {"name": "adult", "size": 80, "seed": 4},
  "engine": {
    "format": "frote.engine_spec", "version": 1,
    "tau": 2, "q": 0.3, "k": 3,
    "learner": {"name": "nb"}, "selector": "random",
    "rules": ["IF hours_per_week > 50 THEN class = >50K"]
  },
  "expected": {"min_instances_added": 1}
})json";

/// kBaseDoc with the first occurrence of `from` replaced by `to`.
std::string mutate(const std::string& from, const std::string& to) {
  std::string doc = kBaseDoc;
  const std::size_t pos = doc.find(from);
  EXPECT_NE(pos, std::string::npos) << "corpus mutation target not found: "
                                    << from;
  if (pos != std::string::npos) doc.replace(pos, from.size(), to);
  return doc;
}

TEST(ScenarioSpecCorpus, BaseDocumentIsValid) {
  auto spec = ScenarioSpec::parse(kBaseDoc);
  ASSERT_TRUE(spec.has_value()) << spec.error().message;
  EXPECT_EQ(spec->name, "corpus");
  EXPECT_EQ(spec->kind, "static");
}

TEST(ScenarioSpecCorpus, MalformedDocumentsAreTypedParseErrors) {
  const std::string drift_phases =
      "\"kind\": \"drift\", \"phases\": [" \
      "{\"arrive_rows\": 10, \"rules\": [], \"steps\": 1}, " \
      "{\"arrive_rows\": 10, \"rules\": [\"IF bogus > 1 THEN class = >50K\"],"
      " \"steps\": 1}],";
  struct Case {
    const char* label;
    std::string document;
    const char* expect;  // required substring of the error message
  };
  const Case corpus[] = {
      // JSON-grammar failures surface the parser's exact line:column.
      {"truncated document", "{\"format\": \"frote.scenario_spec\",",
       "JSON parse error at 1:34"},
      {"bare word value",
       "{\n  \"format\": \"frote.scenario_spec\",\n  \"name\": oops\n}",
       "JSON parse error at 3:11: invalid value"},
      {"missing comma",
       "{\n  \"format\": \"frote.scenario_spec\"\n  \"name\": \"x\"\n}",
       "JSON parse error at 3:3"},
      {"trailing comma",
       "{\"format\": \"frote.scenario_spec\", \"name\": \"x\",}",
       "JSON parse error at 1:47"},
      // Document-shape failures are typed kParseError with the field named.
      {"missing format", mutate("\"format\": \"frote.scenario_spec\", ", ""),
       "not a scenario spec"},
      {"foreign format",
       mutate("\"frote.scenario_spec\"", "\"frote.run_result\""),
       "not a scenario spec"},
      {"newer version", mutate("\"version\": 1,", "\"version\": 99,"),
       "newer than this reader (1)"},
      {"non-numeric version", mutate("\"version\": 1,", "\"version\": \"x\","),
       "invalid version"},
      {"empty name", mutate("\"name\": \"corpus\"", "\"name\": \"\""),
       "name is required"},
      {"unknown kind", mutate("\"kind\": \"static\"", "\"kind\": \"stream\""),
       "kind must be \"static\" or \"drift\""},
      {"static with phases",
       mutate("\"kind\": \"static\",",
              "\"kind\": \"static\", \"phases\": "
              "[{\"arrive_rows\": 10, \"rules\": [], \"steps\": 1}],"),
       "kind \"static\" must not have phases"},
      {"drift without phases", mutate("\"kind\": \"static\"",
                                      "\"kind\": \"drift\""),
       "kind \"drift\" requires a non-empty phases list"},
      {"phases not an array",
       mutate("\"kind\": \"static\",", "\"kind\": \"drift\", \"phases\": 3,"),
       "phases must be an array"},
      {"phase rules not an array",
       mutate("\"kind\": \"static\",",
              "\"kind\": \"drift\", \"phases\": "
              "[{\"arrive_rows\": 10, \"rules\": 5, \"steps\": 1}],"),
       "rules must be an array of rule strings"},
      {"phase rule does not parse", mutate("\"kind\": \"static\",",
                                           drift_phases),
       "phase 1 rule 0: unknown feature: bogus"},
      {"engine dataset set",
       mutate("\"rules\": [\"IF hours_per_week > 50 THEN class = >50K\"]",
              "\"rules\": [\"IF hours_per_week > 50 THEN class = >50K\"], "
              "\"dataset\": {\"kind\": \"synthetic\", \"name\": \"adult\"}"),
       "engine.dataset must be unset"},
      {"engine rule entries not strings",
       mutate("[\"IF hours_per_week > 50 THEN class = >50K\"]", "[42]"),
       "rules entries must be strings"},
      {"engine rule unknown feature",
       mutate("IF hours_per_week > 50", "IF bogus > 50"),
       "engine rule 0: unknown feature: bogus"},
      {"engine rule unknown class",
       mutate("THEN class = >50K", "THEN class = maybe"),
       "engine rule 0: rule parse error at column"},
      {"unknown generator", mutate("\"name\": \"adult\"", "\"name\": \"nope\""),
       "cannot resolve synthetic dataset 'nope'"},
      {"label_noise too large",
       mutate("\"seed\": 4}", "\"seed\": 4, \"label_noise\": 1.5}"),
       "label_noise must be in [0, 1)"},
      {"label_noise negative",
       mutate("\"seed\": 4}", "\"seed\": 4, \"label_noise\": -0.1}"),
       "label_noise must be in [0, 1)"},
      {"class_weights not an array",
       mutate("\"seed\": 4}", "\"seed\": 4, \"class_weights\": \"heavy\"}"),
       "class_weights must be an array of numbers"},
      {"class_weights non-numeric entry",
       mutate("\"seed\": 4}", "\"seed\": 4, \"class_weights\": [\"a\"]}"),
       "class_weights entries must be numbers"},
      {"class_weights negative entry",
       mutate("\"seed\": 4}", "\"seed\": 4, \"class_weights\": [0.5, -0.5]}"),
       "class_weights entries must be non-negative"},
      {"class_weights wrong arity",
       mutate("\"seed\": 4}", "\"seed\": 4, \"class_weights\": "
                              "[0.2, 0.3, 0.5]}"),
       "class_weights must have one entry per class (2), got 3"},
      {"group_report without feature",
       mutate("\"expected\"", "\"group_report\": {\"favorable\": \">50K\"}, "
                              "\"expected\""),
       "feature is required"},
      {"group_report unknown feature",
       mutate("\"expected\"",
              "\"group_report\": {\"feature\": \"zodiac\", "
              "\"favorable\": \">50K\"}, \"expected\""),
       "group_report.feature \"zodiac\" is not a feature of adult"},
      {"group_report numeric feature",
       mutate("\"expected\"",
              "\"group_report\": {\"feature\": \"age\", "
              "\"favorable\": \">50K\"}, \"expected\""),
       "group_report.feature \"age\" must be categorical"},
      {"group_report unknown favorable",
       mutate("\"expected\"",
              "\"group_report\": {\"feature\": \"sex\", "
              "\"favorable\": \"maybe\"}, \"expected\""),
       "group_report.favorable \"maybe\" is not a class of adult"},
      {"max_group_gap without group_report",
       mutate("{\"min_instances_added\": 1}", "{\"max_group_gap\": 0.5}"),
       "expected.max_group_gap requires a group_report"},
  };
  for (const Case& entry : corpus) {
    auto spec = ScenarioSpec::parse(entry.document);
    ASSERT_FALSE(spec.has_value()) << entry.label;
    EXPECT_TRUE(spec.error().code == FroteErrorCode::kParseError)
        << entry.label << ": " << spec.error().message;
    EXPECT_NE(spec.error().message.find(entry.expect), std::string::npos)
        << entry.label << ": expected \"" << entry.expect << "\" in \""
        << spec.error().message << "\"";
  }
}

// ---------------------------------------------------------------------------
// Round-trip byte-equality

TEST(ScenarioSpecRoundTrip, BuiltinDocumentsAreByteStable) {
  // Every built-in document parses, and print ∘ parse is a fixed point:
  // spec → to_json_text → parse → to_json_text is byte-identical.
  ASSERT_FALSE(builtin_scenario_documents().empty());
  for (const auto& [name, document] : builtin_scenario_documents()) {
    auto spec = ScenarioSpec::parse(document);
    ASSERT_TRUE(spec.has_value()) << name << ": " << spec.error().message;
    EXPECT_EQ(spec->name, name);
    const std::string text = spec->to_json_text();
    auto reparsed = ScenarioSpec::parse(text);
    ASSERT_TRUE(reparsed.has_value()) << name << ": "
                                      << reparsed.error().message;
    EXPECT_EQ(reparsed->to_json_text(), text) << name;
    // The registry resolves to the same document.
    auto named = make_named_scenario(name);
    ASSERT_TRUE(named.has_value()) << named.error().message;
    EXPECT_EQ(named->to_json_text(), text) << name;
  }
}

TEST(ScenarioSpecRoundTrip, EveryFieldSurvivesIncludingOverrides) {
  ScenarioSpec spec;
  spec.name = "roundtrip";
  spec.kind = "drift";
  spec.description = "all fields populated";
  spec.generator.name = "adult";
  spec.generator.size = 90;
  spec.generator.seed = 11;
  spec.generator.label_noise = 0.25;
  spec.generator.class_weights = {0.75, 0.25};
  spec.engine.tau = 3;
  spec.engine.q = 0.4;
  spec.engine.k = 3;
  spec.engine.learner = "nb";
  spec.engine.selector = "random";
  ScenarioPhase phase;
  phase.arrive_rows = 20;
  phase.rules = {"IF age > 55 THEN class = <=50K"};
  phase.steps = 2;
  spec.phases = {phase};
  spec.restore_at_drift = false;
  spec.group_report = GroupReportSpec{"sex", ">50K"};
  spec.expected.min_final_j_bar = 0.0;
  spec.expected.min_j_bar_gain = -1.0;
  spec.expected.min_instances_added = 0;
  spec.expected.max_group_gap = 1.0;

  const std::string text = spec.to_json_text();
  auto parsed = ScenarioSpec::parse(text);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(parsed->to_json_text(), text);
  EXPECT_TRUE(parsed->generator.label_noise.has_value());
  EXPECT_EQ(parsed->generator.class_weights.size(), 2u);
  EXPECT_FALSE(parsed->restore_at_drift);
  ASSERT_TRUE(parsed->group_report.has_value());
  EXPECT_EQ(parsed->group_report->feature, "sex");
  ASSERT_TRUE(parsed->expected.max_group_gap.has_value());
}

// ---------------------------------------------------------------------------
// Registry surface

TEST(ScenarioRegistry, BuiltinsAreRegisteredAndUnknownNamesAreTyped) {
  const auto names = registered_scenario_names();
  const auto has = [&](const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has("multiclass_wine"));
  EXPECT_TRUE(has("drift_adult"));
  EXPECT_TRUE(has("fairness_adult"));

  auto missing = make_named_scenario("no_such_scenario");
  ASSERT_FALSE(missing.has_value());
  EXPECT_TRUE(missing.error().code == FroteErrorCode::kUnknownComponent);
  EXPECT_NE(missing.error().message.find("multiclass_wine"),
            std::string::npos);
}

TEST(ScenarioRegistry, StaleDocumentsSurfaceAsTypedErrorsOnLookup) {
  // The registry stores document text; validation happens on lookup, so a
  // broken entry is a typed error at use, never a half-built scenario.
  register_scenario("scratch_stale", "{\"format\": \"nope\"}");
  auto broken = make_named_scenario("scratch_stale");
  ASSERT_FALSE(broken.has_value());
  EXPECT_TRUE(broken.error().code == FroteErrorCode::kParseError);
  // Re-registering replaces the entry.
  register_scenario("scratch_stale", kBaseDoc);
  auto fixed = make_named_scenario("scratch_stale");
  ASSERT_TRUE(fixed.has_value()) << fixed.error().message;
  EXPECT_EQ(fixed->name, "corpus");
}

// ---------------------------------------------------------------------------
// Multi-class contracts (7-class wine generator)

TEST(MultiClassContract, RulesMetricsAndIpSelectionOnSevenClasses) {
  const Dataset data =
      make_dataset(dataset_by_name("wine quality (white)"), 300, 42);
  const Schema& schema = data.schema();
  ASSERT_EQ(schema.num_classes(), 7u);

  const std::vector<FeedbackRule> rules = {
      parse_rule("IF alcohol > 12 THEN class = q7", schema),
      parse_rule("IF volatile_acidity > 0.4 THEN class = q4", schema),
      parse_rule("IF residual_sugar > 8 THEN Y ~ [q5: 0.5, q6: 0.5]",
                 schema),
  };
  const FeedbackRuleSet frs(rules);

  auto learner = make_named_learner("gbdt", {42, /*fast=*/true, 0});
  ASSERT_TRUE(learner.has_value()) << learner.error().message;
  const auto model = (*learner)->train(data);

  // Every class-targeted rule covers real rows, and its agreement is a
  // probability.
  for (const auto& rule : rules) {
    const RuleAgreement agreement = rule_agreement(*model, rule, data, 1);
    EXPECT_GT(agreement.covered, 0u) << rule.to_string(schema);
    EXPECT_GE(agreement.mra, 0.0);
    EXPECT_LE(agreement.mra, 1.0);
    // The per-rule sweep is thread-invariant to the bit.
    const RuleAgreement agreement4 = rule_agreement(*model, rule, data, 4);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(agreement.mra),
              std::bit_cast<std::uint64_t>(agreement4.mra));
    EXPECT_EQ(agreement.covered, agreement4.covered);
  }

  // Objective evaluation over the 7-class rule set: bit-identical at
  // threads 1 vs 4, components in range.
  const ObjectiveBreakdown o1 = evaluate_objective(*model, frs, data, 1);
  const ObjectiveBreakdown o4 = evaluate_objective(*model, frs, data, 4);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(o1.mra),
            std::bit_cast<std::uint64_t>(o4.mra));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(o1.outside_f1),
            std::bit_cast<std::uint64_t>(o4.outside_f1));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(o1.coverage_prob),
            std::bit_cast<std::uint64_t>(o4.coverage_prob));
  EXPECT_EQ(o1.covered, o4.covered);
  EXPECT_EQ(o1.outside, o4.outside);
  EXPECT_GT(o1.covered, 0u);
  EXPECT_GT(o1.outside, 0u);

  // IP selection (borderline-weighted) picks identical (rule, slot) pairs
  // from identical RNG draws at threads 1 vs 4 — the weights behind the
  // choice are bitwise thread-invariant.
  const BasePopulation bp = preselect_base_population(data, frs, 3);
  IpSelectorConfig config1;
  config1.k = 3;
  config1.threads = 1;
  IpSelectorConfig config4 = config1;
  config4.threads = 4;
  const IpSelector selector1(config1);
  const IpSelector selector4(config4);
  Rng rng1(99);
  Rng rng4(99);
  const auto picks1 = selector1.select(data, bp, *model, 12, rng1);
  const auto picks4 = selector4.select(data, bp, *model, 12, rng4);
  ASSERT_EQ(picks1.size(), picks4.size());
  EXPECT_FALSE(picks1.empty());
  for (std::size_t i = 0; i < picks1.size(); ++i) {
    EXPECT_EQ(picks1[i].rule_index, picks4[i].rule_index) << i;
    EXPECT_EQ(picks1[i].bp_slot, picks4[i].bp_slot) << i;
  }
}

// ---------------------------------------------------------------------------
// Scenario replay determinism

TEST(ScenarioRun, BuiltinsMeetExpectedOutcomesThreadInvariantly) {
  for (const auto& name : registered_scenario_names()) {
    if (name.rfind("scratch_", 0) == 0) continue;  // test-local entries
    auto spec = make_named_scenario(name);
    ASSERT_TRUE(spec.has_value()) << name << ": " << spec.error().message;
    ScenarioRunOptions options;
    options.seed = 42;
    options.threads = 1;
    auto report1 = run_scenario(*spec, options);
    ASSERT_TRUE(report1.has_value()) << name << ": "
                                     << report1.error().message;
    options.threads = 4;
    auto report4 = run_scenario(*spec, options);
    ASSERT_TRUE(report4.has_value()) << name << ": "
                                     << report4.error().message;
    // The whole report document — scalars, per-rule agreement, drift
    // phases, group deltas, dataset digest — is byte-identical.
    EXPECT_EQ(report1->to_json_text(), report4->to_json_text()) << name;
    EXPECT_TRUE(report1->expected_ok)
        << name << ": "
        << (report1->expected_failures.empty()
                ? std::string("(no recorded failure)")
                : report1->expected_failures.front());
    EXPECT_GT(report1->rows_final, report1->rows_initial) << name;
    EXPECT_FALSE(report1->dataset_digest.empty());
  }
}

TEST(ScenarioRun, DriftSnapshotRestoreIsBitIdenticalToUninterrupted) {
  auto spec = make_named_scenario("drift_adult");
  ASSERT_TRUE(spec.has_value()) << spec.error().message;
  ASSERT_EQ(spec->kind, "drift");
  ASSERT_TRUE(spec->restore_at_drift);

  ScenarioRunOptions options;
  options.seed = 42;
  auto with_restore = run_scenario(*spec, options);
  ASSERT_TRUE(with_restore.has_value()) << with_restore.error().message;

  ScenarioSpec uninterrupted = *spec;
  uninterrupted.restore_at_drift = false;
  auto without_restore = run_scenario(uninterrupted, options);
  ASSERT_TRUE(without_restore.has_value()) << without_restore.error().message;

  // Snapshot → restore at every drift point changes nothing, to the byte.
  EXPECT_EQ(with_restore->to_json_text(), without_restore->to_json_text());
  EXPECT_EQ(with_restore->phases.size(), spec->phases.size());
  std::size_t arrived = 0;
  for (const auto& phase : with_restore->phases) arrived += phase.rows_arrived;
  EXPECT_EQ(with_restore->rows_final,
            with_restore->rows_initial + arrived +
                with_restore->instances_added);
}

TEST(ScenarioRun, SeedOverrideReseedsTheWholeScenario) {
  auto spec = make_named_scenario("fairness_adult");
  ASSERT_TRUE(spec.has_value()) << spec.error().message;
  ScenarioRunOptions options;
  options.seed = 42;
  auto a = run_scenario(*spec, options);
  auto a_again = run_scenario(*spec, options);
  options.seed = 7;
  auto b = run_scenario(*spec, options);
  ASSERT_TRUE(a.has_value() && a_again.has_value() && b.has_value());
  EXPECT_EQ(a->to_json_text(), a_again->to_json_text());
  EXPECT_NE(a->dataset_digest, b->dataset_digest);
  EXPECT_EQ(a->seed, 42u);
  EXPECT_EQ(b->seed, 7u);
  // The fairness family reports per-group deltas and their spread.
  EXPECT_GE(a->groups.size(), 2u);
  for (const auto& group : a->groups) EXPECT_GT(group.rows, 0u);
  EXPECT_GE(a->group_gap, 0.0);
}

TEST(ScenarioSessionSpec, ServesTheGeneratorAsADatasetReference) {
  auto spec = make_named_scenario("drift_adult");
  ASSERT_TRUE(spec.has_value()) << spec.error().message;
  auto session_spec = scenario_session_spec(*spec, 9);
  ASSERT_TRUE(session_spec.has_value()) << session_spec.error().message;
  ASSERT_TRUE(session_spec->dataset.has_value());
  EXPECT_EQ(session_spec->dataset->kind, "synthetic");
  EXPECT_EQ(session_spec->dataset->name, spec->generator.name);
  EXPECT_EQ(session_spec->dataset->seed, 9u);
  EXPECT_EQ(session_spec->seed, 9u);

  // Blueprint overrides cannot be expressed as a DatasetSpec; the session
  // path refuses instead of silently serving different data.
  ScenarioSpec with_overrides = *spec;
  with_overrides.generator.label_noise = 0.2;
  auto refused = scenario_session_spec(with_overrides);
  ASSERT_FALSE(refused.has_value());
  EXPECT_TRUE(refused.error().code == FroteErrorCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// The generalized generator path (DatasetSpec synthetic delegation)

TEST(GeneratorPath, DatasetByNameIsCaseInsensitive) {
  EXPECT_TRUE(dataset_by_name("ADULT") == dataset_by_name("adult"));
  EXPECT_TRUE(dataset_by_name("Wine Quality (White)") ==
              dataset_by_name("wine quality (white)"));
  EXPECT_THROW(dataset_by_name("no such dataset"), Error);
}

TEST(GeneratorPath, SpecSyntheticAndGeneratorSpecProduceIdenticalRows) {
  // Satellite of the refactor: load_spec_dataset's "synthetic" kind
  // delegates to the generalized generator, so both paths draw the same
  // bytes.
  DatasetSpec dataset_spec{"synthetic", "", "adult", 120, 9};
  auto via_spec = load_spec_dataset(dataset_spec);
  ASSERT_TRUE(via_spec.has_value()) << via_spec.error().message;

  GeneratorSpec generator;
  generator.name = "adult";
  generator.size = 120;
  generator.seed = 9;
  auto via_generator = generate_dataset(generator);
  ASSERT_TRUE(via_generator.has_value()) << via_generator.error().message;

  ASSERT_EQ(via_spec->size(), via_generator->size());
  ASSERT_EQ(via_spec->num_features(), via_generator->num_features());
  for (std::size_t i = 0; i < via_spec->size(); ++i) {
    EXPECT_EQ(via_spec->label(i), via_generator->label(i)) << i;
    const auto row_a = via_spec->row(i);
    const auto row_b = via_generator->row(i);
    for (std::size_t j = 0; j < row_a.size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(row_a[j]),
                std::bit_cast<std::uint64_t>(row_b[j]))
          << i << "," << j;
    }
  }

  auto unknown = load_spec_dataset(DatasetSpec{"synthetic", "", "nope", 10, 1});
  ASSERT_FALSE(unknown.has_value());
  EXPECT_TRUE(unknown.error().code == FroteErrorCode::kUnknownComponent);
}

TEST(GeneratorPath, OverridesReshapeLabelsOnly) {
  GeneratorSpec plain;
  plain.name = "adult";
  plain.size = 200;
  plain.seed = 3;
  GeneratorSpec weighted = plain;
  weighted.class_weights = {0.05, 0.95};
  auto a = generate_dataset(plain);
  auto b = generate_dataset(weighted);
  ASSERT_TRUE(a.has_value() && b.has_value());
  ASSERT_EQ(a->size(), b->size());
  // Schema and feature matrix are untouched; the label distribution moves
  // toward the favored class.
  std::size_t flips = 0;
  std::size_t positives_plain = 0;
  std::size_t positives_weighted = 0;
  for (std::size_t i = 0; i < a->size(); ++i) {
    positives_plain += a->label(i) == 1 ? 1 : 0;
    positives_weighted += b->label(i) == 1 ? 1 : 0;
    flips += a->label(i) != b->label(i) ? 1 : 0;
    const auto row_a = a->row(i);
    const auto row_b = b->row(i);
    for (std::size_t j = 0; j < row_a.size(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(row_a[j]),
                std::bit_cast<std::uint64_t>(row_b[j]));
    }
  }
  EXPECT_GT(flips, 0u);
  EXPECT_GT(positives_weighted, positives_plain);
}

// ---------------------------------------------------------------------------
// RunPlan scenario grids

TEST(RunPlanScenarios, GridParsesExpandsDeterministicallyAndRoundTrips) {
  const char plan_text[] = R"json({
  "format": "frote.run_plan", "version": 1,
  "grid": {
    "scenarios": ["fairness_adult", "multiclass_wine"],
    "learners": ["rf"],
    "seeds": [42, 7]
  },
  "threads": 2
})json";
  auto plan = RunPlan::parse(plan_text);
  ASSERT_TRUE(plan.has_value()) << plan.error().message;
  const auto runs = plan->expand();
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].name, "run-000-fairness_adult-rf-s42");
  EXPECT_EQ(runs[1].name, "run-001-fairness_adult-rf-s7");
  EXPECT_EQ(runs[2].name, "run-002-multiclass_wine-rf-s42");
  EXPECT_EQ(runs[3].name, "run-003-multiclass_wine-rf-s7");
  EXPECT_EQ(runs[0].scenario, "fairness_adult");
  EXPECT_EQ(runs[0].learner_override, "rf");
  EXPECT_EQ(runs[0].selector_override, "");
  ASSERT_TRUE(runs[1].seed.has_value());
  EXPECT_EQ(*runs[1].seed, 7u);

  // Scenario plans omit "base" and round-trip byte-identically.
  const std::string dumped = plan->to_json_text();
  EXPECT_EQ(dumped.find("\"base\""), std::string::npos);
  auto reparsed = RunPlan::parse(dumped);
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error().message;
  EXPECT_EQ(reparsed->to_json_text(), dumped);

  // A plan with neither base nor scenarios is refused.
  auto empty = RunPlan::parse(
      "{\"format\": \"frote.run_plan\", \"version\": 1, \"grid\": {}}");
  ASSERT_FALSE(empty.has_value());
  EXPECT_NE(empty.error().message.find("missing \"base\""),
            std::string::npos);
}

TEST(RunPlanScenarios, UnknownScenarioOrOverrideFailsBeforeAnyRun) {
  RunPlan plan;
  plan.scenarios = {"no_such_scenario"};
  plan.seeds = {1};
  auto unknown = execute_plan(plan, {});
  ASSERT_FALSE(unknown.has_value());
  EXPECT_TRUE(unknown.error().code == FroteErrorCode::kUnknownComponent);

  plan.scenarios = {"fairness_adult"};
  plan.learners = {"no_such_learner"};
  auto bad_learner = execute_plan(plan, {});
  ASSERT_FALSE(bad_learner.has_value());
  EXPECT_TRUE(bad_learner.error().code == FroteErrorCode::kUnknownComponent);

  plan.learners = {};
  plan.selectors = {"no_such_selector"};
  auto bad_selector = execute_plan(plan, {});
  ASSERT_FALSE(bad_selector.has_value());
  EXPECT_TRUE(bad_selector.error().code ==
              FroteErrorCode::kUnknownComponent);
}

/// Read a whole file (test-local; artifacts are small).
std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path.string();
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A registered-at-runtime workload whose generator seed (4) is not the
/// EngineSpec default (42).
void register_scratch_grid() {
  register_scenario("scratch_grid", R"json({
  "format": "frote.scenario_spec", "version": 1,
  "name": "scratch_grid",
  "kind": "static",
  "generator": {"name": "adult", "size": 80, "seed": 4},
  "engine": {
    "format": "frote.engine_spec", "version": 1,
    "tau": 2, "q": 0.3, "k": 3,
    "learner": {"name": "nb"}, "selector": "random",
    "rules": ["IF hours_per_week > 50 THEN class = >50K"]
  },
  "expected": {"min_instances_added": 0}
})json");
}

TEST(RunPlanScenarios, ScratchScenarioRunsThroughTheGridWithNoEngineCode) {
  // The acceptance demonstration: registering a new workload is JSON plus
  // one registry entry, and the grid driver runs it like any built-in.
  register_scratch_grid();

  RunPlan plan;
  plan.scenarios = {"scratch_grid"};
  plan.seeds = {5};
  plan.threads = 1;

  const fs::path root =
      fs::temp_directory_path() / "frote_test_scenario_grid";
  fs::remove_all(root);
  RunPlanOptions options;
  options.output_dir = (root / "a").string();
  auto first = execute_plan(plan, options);
  ASSERT_TRUE(first.has_value()) << first.error().message;
  ASSERT_EQ(first->size(), 1u);
  EXPECT_TRUE(first->front().completed);
  EXPECT_EQ(first->front().name, "run-000-scratch_grid-s5");

  const fs::path run_dir = root / "a" / "run-000-scratch_grid-s5";
  const std::string result_text = slurp(run_dir / "result.json");
  auto result_json = json_parse(result_text);
  ASSERT_TRUE(result_json.has_value()) << result_json.error().message;
  EXPECT_EQ(result_json->find("format")->as_string(),
            "frote.scenario_result");
  EXPECT_EQ(result_json->find("scenario")->as_string(), "scratch_grid");
  EXPECT_EQ(result_json->find("seed")->as_uint64(), 5u);

  // spec.json is the fully-resolved scenario document and still parses.
  auto resolved = ScenarioSpec::parse(slurp(run_dir / "spec.json"));
  ASSERT_TRUE(resolved.has_value()) << resolved.error().message;
  EXPECT_EQ(resolved->generator.seed, 5u);
  EXPECT_EQ(resolved->engine.seed, 5u);

  // A second execution into a fresh directory produces identical bytes,
  // and a resumed execution over the first directory re-runs nothing yet
  // reports the same summary.
  options.output_dir = (root / "b").string();
  auto second = execute_plan(plan, options);
  ASSERT_TRUE(second.has_value()) << second.error().message;
  EXPECT_EQ(slurp(root / "b" / "run-000-scratch_grid-s5" / "result.json"),
            result_text);

  options.output_dir = (root / "a").string();
  options.resume = true;
  auto resumed = execute_plan(plan, options);
  ASSERT_TRUE(resumed.has_value()) << resumed.error().message;
  EXPECT_TRUE(resumed->front().completed);
  EXPECT_EQ(resumed->front().instances_added,
            first->front().instances_added);
  EXPECT_EQ(slurp(run_dir / "result.json"), result_text);

  // A result.json of the right format but with fields missing is not a
  // completed run: resume re-executes it and rewrites the same bytes.
  std::ofstream(run_dir / "result.json", std::ios::trunc)
      << "{\"format\":\"frote.scenario_result\",\"version\":1,"
         "\"scenario\":\"scratch_grid\"}";
  auto rerun = execute_plan(plan, options);
  ASSERT_TRUE(rerun.has_value()) << rerun.error().message;
  EXPECT_TRUE(rerun->front().completed);
  EXPECT_EQ(rerun->front().instances_added, first->front().instances_added);
  EXPECT_EQ(slurp(run_dir / "result.json"), result_text);

  fs::remove_all(root);
}

TEST(RunPlanScenarios, EmptySeedAxisKeepsTheScenariosOwnSeeds) {
  // Like the empty learner/selector axes, no "grid.seeds" means no
  // override: the run replays the registered document as written.
  register_scratch_grid();
  RunPlan plan;
  plan.scenarios = {"scratch_grid"};
  plan.threads = 1;
  const auto runs = plan.expand();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].name, "run-000-scratch_grid");
  EXPECT_FALSE(runs[0].seed.has_value());

  const fs::path root =
      fs::temp_directory_path() / "frote_test_scenario_own_seed";
  fs::remove_all(root);
  RunPlanOptions options;
  options.output_dir = root.string();
  auto results = execute_plan(plan, options);
  ASSERT_TRUE(results.has_value()) << results.error().message;
  ASSERT_EQ(results->size(), 1u);

  auto spec = make_named_scenario("scratch_grid");
  ASSERT_TRUE(spec.has_value()) << spec.error().message;
  auto direct = run_scenario(*spec);
  ASSERT_TRUE(direct.has_value()) << direct.error().message;
  EXPECT_EQ(slurp(root / "run-000-scratch_grid" / "result.json"),
            direct->to_json_text() + "\n");

  // Replicates without a seed axis derive from the scenario's own seed.
  plan.replicates = 2;
  fs::remove_all(root);
  auto replicated = execute_plan(plan, options);
  ASSERT_TRUE(replicated.has_value()) << replicated.error().message;
  ASSERT_EQ(replicated->size(), 2u);
  for (std::uint64_t r = 0; r < 2; ++r) {
    const std::string name = "run-00" + std::to_string(r) + "-scratch_grid-r" +
                             std::to_string(r);
    auto result = json_parse(slurp(root / name / "result.json"));
    ASSERT_TRUE(result.has_value()) << result.error().message;
    EXPECT_EQ(result->find("seed")->as_uint64(),
              derive_seed(spec->engine.seed, r));
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace frote
