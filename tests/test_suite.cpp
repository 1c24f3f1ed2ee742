// Tests for the Suite/SweepSpec layer: registries, gated cell
// enumeration, spec JSON round-trips and the
// stability/order-insensitivity of spec_hash, spec-hash enforcement in
// merge_shards and the shard-file parser, and bit-identical custom-suite
// sweeps across thread counts and a 3-way shard split.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "agents/techniques.hpp"
#include "apps/xor_common.hpp"
#include "eval/report.hpp"
#include "eval/shard.hpp"
#include "support/par.hpp"
#include "support/strings.hpp"

namespace pe = pareval::eval;
namespace ps = pareval::support;
using pareval::apps::Model;
using pareval::llm::Pair;
using pareval::llm::Technique;

namespace {

pe::SweepSpec small_paper_spec(int samples = 2) {
  pe::SweepSpec spec = pe::SweepSpec::paper();
  spec.samples_per_task = samples;
  return spec;
}

/// The custom suite of examples/custom_suite.cpp, miniaturized: one extra
/// app (an OMP-threads/CUDA clone of the XOR stencil), one custom LLM with
/// profile-wide capability scores, and the reverse OMP->CUDA pair.
pe::Suite custom_suite() {
  pareval::apps::AppSpec pico;
  pico.name = "picoXOR-test";
  pico.description = "suite-registration test app";
  pareval::apps::xor_fill_common(pico, "picoXOR-test", {"src/main.cpp"},
                                 {"src/main.cpp"});
  pareval::vfs::Repo omp;
  omp.write("Makefile",
            "CXX = g++\nCXXFLAGS = -O2 -fopenmp\n\nall: picoXOR-test\n\n"
            "picoXOR-test: src/main.cpp\n"
            "\t$(CXX) $(CXXFLAGS) src/main.cpp -o picoXOR-test\n\n"
            "clean:\n\trm -f picoXOR-test\n");
  omp.write("src/main.cpp",
            pareval::apps::xor_omp_main("", /*kernel_inline=*/true));
  pico.repos[Model::OmpThreads] = std::move(omp);

  pareval::llm::LlmProfile tabby;
  tabby.name = "tabby-test";
  tabby.context_tokens = 200000;
  tabby.max_output_tokens = 20000;

  pe::Suite suite = pe::Suite::paper();
  suite.add_app(std::move(pico))
      .add_profile(tabby)
      .add_pair({Model::OmpThreads, Model::Cuda})
      .set_profile_scores("tabby-test", {0.9, 0.7, 0.8, 0.6});
  return suite;
}

pe::SweepSpec custom_spec() {
  pe::SweepSpec spec;
  spec.llms = {"tabby-test"};
  spec.pairs = {pareval::llm::pair_key({Model::OmpThreads, Model::Cuda})};
  spec.techniques = {
      pareval::llm::technique_key(Technique::NonAgentic),
      pareval::llm::technique_key(Technique::TopDown)};
  spec.samples_per_task = 3;
  spec.seed = 99;
  return spec;
}

}  // namespace

// ------------------------------------------------------------ registries --

TEST(Suite, PaperRegistriesMatchGlobalSets) {
  const pe::Suite& suite = pe::Suite::paper();
  EXPECT_EQ(suite.apps(), pareval::apps::all_apps());
  ASSERT_EQ(suite.profiles().size(), pareval::llm::all_profiles().size());
  for (std::size_t i = 0; i < suite.profiles().size(); ++i) {
    EXPECT_EQ(*suite.profiles()[i], pareval::llm::all_profiles()[i]);
  }
  EXPECT_EQ(suite.pairs(), pareval::llm::all_pairs());
  EXPECT_EQ(suite.techniques().size(), 3u);
  EXPECT_NE(suite.find_app("XSBench"), nullptr);
  EXPECT_NE(suite.find_profile("o4-mini"), nullptr);
  EXPECT_EQ(suite.find_app("no-such-app"), nullptr);
}

TEST(Suite, CalibrationOverridePrecedence) {
  pe::Suite suite = custom_suite();
  const Pair reverse{Model::OmpThreads, Model::Cuda};
  // Profile-wide default applies to any cell of the custom LLM...
  auto wide = suite.calibration("tabby-test", Technique::TopDown, reverse,
                                "nanoXOR");
  ASSERT_TRUE(wide.has_value());
  EXPECT_DOUBLE_EQ(wide->code_build, 0.9);
  // ...an exact-cell override wins over it...
  suite.set_cell_scores("tabby-test", Technique::TopDown, reverse,
                        "nanoXOR", {1, 1, 1, 1});
  auto exact = suite.calibration("tabby-test", Technique::TopDown, reverse,
                                 "nanoXOR");
  ASSERT_TRUE(exact.has_value());
  EXPECT_DOUBLE_EQ(exact->code_build, 1.0);
  // ...and unknown LLMs still fall back to the paper tables.
  EXPECT_FALSE(suite.calibration("no-such-model", Technique::NonAgentic,
                                 pareval::llm::all_pairs()[0], "nanoXOR")
                   .has_value());
  EXPECT_TRUE(suite.calibration("o4-mini", Technique::NonAgentic,
                                pareval::llm::all_pairs()[0], "nanoXOR")
                  .has_value());
}

// ------------------------------------------------------------------ spec --

TEST(SweepSpec, JsonRoundTrip) {
  pe::SweepSpec spec;
  spec.llms = {"o4-mini", "gpt-4o-mini"};
  spec.pairs = {"cuda->kokkos"};
  spec.apps = {"nanoXOR", "XSBench"};
  spec.techniques = {"non_agentic"};
  spec.samples_per_task = 7;
  spec.seed = 0xdeadbeefcafeULL;
  pe::TechniqueGate gate;
  gate.technique = "swe_agent";
  gate.llms = {"gpt-4o-mini"};
  gate.pairs = {"cuda->kokkos"};
  gate.apps = {"nanoXOR"};
  spec.gates.push_back(gate);

  // Through the full text round trip, as the --spec tools consume it.
  const std::string text = pe::spec_file_text(spec);
  const auto parsed = ps::Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  pe::SweepSpec back;
  ASSERT_TRUE(pe::from_json(*parsed, &back));
  EXPECT_EQ(back, spec);
  EXPECT_EQ(pe::spec_hash(back), pe::spec_hash(spec));
}

TEST(SweepSpec, AcceptsMinimalHandWrittenFiles) {
  // The natural hand-authored form: numeric seed, omitted lists/gates.
  const auto j = ps::Json::parse(
      "{\"format\":\"pareval-sweep-spec\",\"llms\":[\"o4-mini\"],"
      "\"seed\":1070}");
  ASSERT_TRUE(j.has_value());
  pe::SweepSpec spec;
  ASSERT_TRUE(pe::from_json(*j, &spec));
  EXPECT_EQ(spec.llms, std::vector<std::string>{"o4-mini"});
  EXPECT_TRUE(spec.pairs.empty());     // omitted = all
  EXPECT_TRUE(spec.gates.empty());     // omitted = none
  EXPECT_EQ(spec.seed, 1070u);         // numeric form
  EXPECT_EQ(spec.samples_per_task, pe::SweepSpec{}.samples_per_task);
}

TEST(Suite, ReRegistrationReplacesInPlace) {
  // "Copy paper(), re-register a tweaked profile" must override, not
  // shadow: the entry keeps its canonical position and stays unique.
  pe::Suite suite = pe::Suite::paper();
  const std::size_t apps = suite.apps().size();
  const std::size_t profiles = suite.profiles().size();

  pareval::llm::LlmProfile tweaked = *suite.find_profile("gpt-4o-mini");
  tweaked.context_tokens = 999;
  suite.add_profile(tweaked);
  EXPECT_EQ(suite.profiles().size(), profiles);
  EXPECT_EQ(suite.profiles()[1]->name, "gpt-4o-mini");  // position kept
  EXPECT_EQ(suite.find_profile("gpt-4o-mini")->context_tokens, 999);

  suite.add_app(pareval::apps::all_apps()[0]);  // duplicate app pointer
  EXPECT_EQ(suite.apps().size(), apps);
  suite.add_pair(pareval::llm::all_pairs()[0]);  // duplicate pair
  EXPECT_EQ(suite.pairs().size(), pareval::llm::all_pairs().size());
  suite.add_technique(Technique::TopDown);  // duplicate technique
  EXPECT_EQ(suite.techniques().size(), 3u);
}

TEST(Suite, ReRegisteredAppOrProfileGetsAFreshTranslation) {
  // The per-cell translation memo is keyed on content, not names: a
  // re-registered "nanoXOR" with edited sources, or a profile with a new
  // output multiplier, must not reuse what the stock entry computed.
  pe::Suite suite = pe::Suite::paper();
  const Pair pair{Model::Cuda, Model::OmpOffload};
  const pareval::llm::CellScores perfect{1, 1, 1, 1};  // no defects
  auto run = [&] {
    ps::Rng rng(3);
    return pareval::agents::run_technique(
        *suite.find_app("nanoXOR"), Technique::NonAgentic,
        *suite.find_profile("o4-mini"), pair, rng, perfect, "");
  };
  const auto stock = run();  // fills the memo for the stock app
  ASSERT_TRUE(stock.generated);

  pareval::apps::AppSpec edited = *suite.find_app("nanoXOR");
  pareval::vfs::Repo& cuda = edited.repos.at(Model::Cuda);
  cuda.write("src/main.cu",
             "#define NANOXOR_EDITED 1\n" + cuda.at("src/main.cu"));
  suite.add_app(std::move(edited));
  const auto after_edit = run();
  ASSERT_TRUE(after_edit.generated);
  EXPECT_FALSE(ps::contains(stock.repo.at("src/main.cpp"), "NANOXOR_EDITED"));
  EXPECT_TRUE(
      ps::contains(after_edit.repo.at("src/main.cpp"), "NANOXOR_EDITED"));

  pareval::llm::LlmProfile tweaked = *suite.find_profile("o4-mini");
  tweaked.output_multiplier *= 2.0;
  suite.add_profile(tweaked);
  const auto after_profile = run();
  EXPECT_EQ(after_profile.input_tokens, after_edit.input_tokens);
  EXPECT_NE(after_profile.output_tokens, after_edit.output_tokens);

  // The harness path resolves each cell's memo key where sweep_cells
  // builds the cells: an app that differs only in its CLI contract (part
  // of SWE-agent's issue text) must get its own entry there too.
  pe::SweepSpec spec;
  spec.apps = {"nanoXOR"};
  spec.techniques = {pareval::llm::technique_key(Technique::SweAgent)};
  spec.llms = {"gpt-4o-mini"};
  spec.pairs = {pareval::llm::pair_key({Model::Cuda, Model::Kokkos})};
  spec.samples_per_task = 2;
  const auto before_cli = pe::run_sweep(suite, spec);
  pareval::apps::AppSpec cli = *suite.find_app("nanoXOR");
  cli.cli_spec += " Also accept a --verbose flag and print each step.";
  suite.add_app(std::move(cli));
  const auto after_cli = pe::run_sweep(suite, spec);
  ASSERT_EQ(before_cli.size(), 1u);
  ASSERT_EQ(after_cli.size(), 1u);
  ASSERT_TRUE(before_cli[0].ran);
  ASSERT_TRUE(after_cli[0].ran);
  EXPECT_GT(after_cli[0].avg_tokens, before_cli[0].avg_tokens);
}

TEST(Suite, SampleSeedsMatchTheStringConcatFormula) {
  // sample_seed continues the FNV state of the cell's constant prefix;
  // the seeds must equal hashing the whole coordinate string, or every
  // sweep output would move.
  const pe::SweepSpec spec = pe::SweepSpec::paper();
  const auto cells = pe::sweep_cells(pe::Suite::paper(), spec);
  ASSERT_GT(cells.size(), 3u);
  std::vector<const pe::SweepCell*> picked = {
      &cells.front(), &cells[cells.size() / 2], &cells.back()};
  for (const pe::SweepCell& cell : cells) {
    if (cell.technique == Technique::SweAgent) {
      picked.push_back(&cell);
      break;
    }
  }
  for (const pe::SweepCell* cell : picked) {
    ASSERT_TRUE(cell->resolved);
    const std::string prefix =
        cell->profile->name + "|" +
        pareval::llm::technique_name(cell->technique) + "|" +
        pareval::llm::pair_name(cell->pair) + "|" + cell->app->name;
    for (const int sample : {0, 1, 9, 10, 24, 99, 2147483647}) {
      EXPECT_EQ(pe::sample_seed(*cell, spec.seed, sample),
                spec.seed ^ ps::stable_hash(prefix + "#" +
                                            std::to_string(sample)))
          << prefix << " #" << sample;
    }
  }
  // A cell built from its coordinates alone resolves to the same cell.
  const pe::SweepCell& first = cells.front();
  const pe::SweepCell bare{first.app, first.technique, first.profile,
                           first.pair};
  const pe::SweepCell resolved = pe::resolve_cell(pe::Suite::paper(), bare);
  EXPECT_EQ(resolved.seed_prefix, first.seed_prefix);
  EXPECT_EQ(resolved.memo.cell, first.memo.cell);
  EXPECT_EQ(resolved.scores.has_value(), first.scores.has_value());
}

TEST(SweepSpec, FromJsonRejectsMalformedInput) {
  pe::SweepSpec spec;
  EXPECT_FALSE(pe::from_json(ps::Json("nope"), &spec));
  EXPECT_FALSE(
      pe::from_json(*ps::Json::parse("{\"format\":\"other\"}"), &spec));
  auto j = pe::to_json(pe::SweepSpec::paper());
  j.set("samples_per_task", "not a number");
  EXPECT_FALSE(pe::from_json(j, &spec));
  // samples_per_task must be a JSON integer in [1, INT_MAX]: no
  // truncation (2.5 would run N=2), no wrap (2^32 + 1 would run N=1), and
  // no out-of-range double -> integer conversion.
  for (const char* bad : {"2.5", "4294967297", "1e300", "1e20", "25.0",
                          "0", "-3", "2147483648", "99999999999999999999"}) {
    auto parsed = ps::Json::parse(bad);
    ASSERT_TRUE(parsed.has_value()) << bad;
    j.set("samples_per_task", *parsed);
    EXPECT_FALSE(pe::from_json(j, &spec)) << "samples_per_task " << bad;
  }
  j.set("samples_per_task", *ps::Json::parse("2147483647"));
  ASSERT_TRUE(pe::from_json(j, &spec));
  EXPECT_EQ(spec.samples_per_task, 2147483647);
  // A numeric seed is a non-negative JSON integer; larger seeds are hex.
  j = pe::to_json(pe::SweepSpec::paper());
  for (const char* bad : {"1070.5", "1e300", "-1"}) {
    j.set("seed", *ps::Json::parse(bad));
    EXPECT_FALSE(pe::from_json(j, &spec)) << "seed " << bad;
  }
}

TEST(SweepSpec, HashIsStableAndOrderInsensitive) {
  // Golden value: the paper spec's hash is part of the on-disk contract
  // (shard files embed it); changing the canonicalization or the spec
  // fields is a format break and must be deliberate.
  EXPECT_EQ(ps::u64_to_hex(pe::spec_hash(pe::SweepSpec::paper())),
            "3767015b8e531fe2");

  pe::SweepSpec a = pe::SweepSpec::paper();
  a.llms = {"o4-mini", "gpt-4o-mini"};
  pe::SweepSpec b = pe::SweepSpec::paper();
  b.llms = {"gpt-4o-mini", "o4-mini", "gpt-4o-mini"};  // reordered + dup
  EXPECT_EQ(pe::spec_hash(a), pe::spec_hash(b));  // same selection

  pe::SweepSpec c = pe::SweepSpec::paper();
  c.seed ^= 1;
  EXPECT_NE(pe::spec_hash(c), pe::spec_hash(pe::SweepSpec::paper()));
  pe::SweepSpec d = pe::SweepSpec::paper();
  d.samples_per_task += 1;
  EXPECT_NE(pe::spec_hash(d), pe::spec_hash(pe::SweepSpec::paper()));
  pe::SweepSpec e = pe::SweepSpec::paper();
  e.gates.clear();
  EXPECT_NE(pe::spec_hash(e), pe::spec_hash(pe::SweepSpec::paper()));
}

TEST(SweepSpec, ValidateCatchesUnknownNames) {
  const pe::Suite& suite = pe::Suite::paper();
  EXPECT_EQ(pe::SweepSpec::paper().validate(suite), "");
  pe::SweepSpec bad_llm;
  bad_llm.llms = {"gpt-17"};
  EXPECT_NE(bad_llm.validate(suite), "");
  pe::SweepSpec bad_pair;
  bad_pair.pairs = {"cuda->fortran"};
  EXPECT_NE(bad_pair.validate(suite), "");
  pe::SweepSpec missing_pair;
  missing_pair.pairs = {"kokkos->cuda"};  // well-formed, not registered
  EXPECT_NE(missing_pair.validate(suite), "");
  pe::SweepSpec bad_samples;
  bad_samples.samples_per_task = 0;
  EXPECT_NE(bad_samples.validate(suite), "");
  // A typo inside a gate would silently drop every cell of the technique,
  // so gate lists must resolve against the suite too.
  pe::SweepSpec bad_gate = pe::SweepSpec::paper();
  bad_gate.gates[0].llms = {"gpt4o-mini"};  // typo
  EXPECT_NE(bad_gate.validate(suite), "");
  pe::SweepSpec bad_gate_pair = pe::SweepSpec::paper();
  bad_gate_pair.gates[0].pairs = {"cuda->fortran"};
  EXPECT_NE(bad_gate_pair.validate(suite), "");
}

TEST(SweepSpec, GatesRestrictCells) {
  // The paper's SWE-agent gate: cells exist only for gpt-4o-mini on
  // CUDA->Kokkos over the four smallest apps.
  const auto cells =
      pe::sweep_cells(pe::Suite::paper(), small_paper_spec());
  int swe_cells = 0;
  for (const auto& cell : cells) {
    if (cell.technique != Technique::SweAgent) continue;
    ++swe_cells;
    EXPECT_EQ(cell.profile->name, "gpt-4o-mini");
    EXPECT_EQ(cell.pair, (Pair{Model::Cuda, Model::Kokkos}));
    EXPECT_NE(cell.app->name, "XSBench");
    EXPECT_NE(cell.app->name, "llm.c");
  }
  EXPECT_EQ(swe_cells, 4);
}

// ------------------------------------------------------- sweep identity --

TEST(RunSweep, PaperSpecBitIdenticalToLegacyPairSweeps) {
  // Suite::paper() + the default spec is the paper's per-pair sweeps
  // (pair_spec), concatenated in pair order.
  const pe::SweepSpec spec = small_paper_spec();
  pe::ScoreCache cache;
  pe::HarnessConfig config;
  config.score_cache = &cache;
  const auto swept = pe::run_sweep(pe::Suite::paper(), spec, config);

  std::vector<pe::TaskResult> per_pair;
  for (const Pair& pair : pareval::llm::all_pairs()) {
    pe::SweepSpec one_pair = pe::pair_spec(pair);
    one_pair.samples_per_task = spec.samples_per_task;
    for (auto& t : pe::run_sweep(pe::Suite::paper(), one_pair, config)) {
      per_pair.push_back(std::move(t));
    }
  }
  EXPECT_EQ(swept, per_pair);
}

TEST(RunSweep, CustomSuiteIdenticalAcrossThreadCounts) {
  const pe::Suite suite = custom_suite();
  const pe::SweepSpec spec = custom_spec();
  ASSERT_EQ(spec.validate(suite), "");

  pe::HarnessConfig serial;
  serial.threads = 1;
  pe::ScoreCache serial_cache;
  serial.score_cache = &serial_cache;
  pe::HarnessConfig pooled;
  pooled.threads = ps::hardware_threads();
  pe::ScoreCache pooled_cache;
  pooled.score_cache = &pooled_cache;

  const auto a = pe::run_sweep(suite, spec, serial);
  const auto b = pe::run_sweep(suite, spec, pooled);
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());
  // The custom LLM generates (profile-wide scores), so cells ran.
  for (const auto& t : a) {
    EXPECT_TRUE(t.ran) << t.llm << " / " << t.app << ": " << t.abort_reason;
    EXPECT_EQ(t.llm, "tabby-test");
  }
}

TEST(RunSweep, CustomSuiteThreeWayShardSplitIsExact) {
  const pe::Suite suite = custom_suite();
  const pe::SweepSpec spec = custom_spec();

  constexpr int kShards = 3;
  std::vector<pe::ShardResult> shards;
  for (int i = 0; i < kShards; ++i) {
    shards.push_back(pe::run_shard(suite, spec, i, kShards, {}));
    EXPECT_EQ(shards.back().shard_count, kShards);
    EXPECT_EQ(shards.back().spec, spec);
  }
  // Through the on-disk format, as the CI fan-in consumes it.
  std::vector<pe::ShardResult> parsed;
  std::string error;
  ASSERT_TRUE(pe::parse_shard_file(pe::shard_file_text(shards), &parsed,
                                   &error))
      << error;
  ASSERT_EQ(parsed.size(), shards.size());
  EXPECT_EQ(parsed, shards);

  const auto merged = pe::merge_shards(suite, spec, parsed);
  EXPECT_EQ(merged, pe::run_sweep(suite, spec));
}

// ------------------------------------------------------ hash enforcement --

TEST(ShardSpecHash, MergeRejectsMismatchedSpecHash) {
  const pe::Suite& suite = pe::Suite::paper();
  pe::SweepSpec spec = small_paper_spec();
  spec.pairs = {"cuda->omp_offload"};
  spec.llms = {"o4-mini"};
  spec.apps = {"nanoXOR", "microXOR"};

  std::vector<pe::ShardResult> shards;
  for (int i = 0; i < 2; ++i) {
    shards.push_back(pe::run_shard(suite, spec, i, 2, {}));
  }
  EXPECT_NO_THROW(pe::merge_shards(suite, spec, shards));

  // One shard ran a different spec: refused.
  auto tampered = shards;
  tampered[1].spec.seed ^= 1;
  EXPECT_THROW(pe::merge_shards(suite, spec, tampered), std::runtime_error);
  // The authoritative spec disagrees with every shard: refused too.
  pe::SweepSpec other = spec;
  other.samples_per_task += 1;
  EXPECT_THROW(pe::merge_shards(suite, other, shards), std::runtime_error);
}

TEST(ShardSpecHash, MergeRejectsShardsFromADifferentSuite) {
  // Same spec (even same hash, since an empty-selection spec names no
  // registry entries), different suite: the shard's bare cell indices
  // would resolve against the wrong cells, so the merger must refuse.
  const pe::Suite custom = custom_suite();
  pe::SweepSpec spec;
  spec.llms = {"o4-mini"};
  spec.pairs = {"cuda->omp_offload"};
  spec.apps = {"nanoXOR"};
  spec.techniques = {"non_agentic"};
  spec.samples_per_task = 1;
  const auto shard = pe::run_shard(custom, spec, 0, 1, {});
  EXPECT_EQ(shard.suite_fingerprint, custom.fingerprint());
  EXPECT_NE(pe::Suite::paper().fingerprint(), custom.fingerprint());
  EXPECT_THROW(pe::merge_shards(pe::Suite::paper(), spec, {shard}),
               std::runtime_error);
  EXPECT_NO_THROW(pe::merge_shards(custom, spec, {shard}));
}

TEST(ShardSpecHash, ParserRejectsTamperedSpec) {
  const pe::Suite& suite = pe::Suite::paper();
  pe::SweepSpec spec = small_paper_spec(1);
  spec.pairs = {"cuda->omp_offload"};
  spec.llms = {"gemini-1.5-flash"};
  spec.apps = {"nanoXOR"};
  spec.techniques = {"non_agentic"};
  const auto shard = pe::run_shard(suite, spec, 0, 1, {});
  std::string text = pe::shard_file_text({shard});

  // Flip the embedded seed without updating the recorded hash: the spec
  // no longer matches its spec_hash and the parser refuses the file.
  const std::string seed_hex = ps::u64_to_hex(spec.seed);
  ASSERT_NE(text.find(seed_hex), std::string::npos);
  std::string tampered =
      ps::replace_all(text, seed_hex, ps::u64_to_hex(spec.seed ^ 1));
  std::vector<pe::ShardResult> parsed;
  std::string error;
  EXPECT_FALSE(pe::parse_shard_file(tampered, &parsed, &error));
}

// ------------------------------------------------------------- reporting --

TEST(Report, SuiteAwareBuildersRenderCustomColumns) {
  const pe::Suite suite = custom_suite();
  const pe::SweepSpec spec = custom_spec();
  const auto tasks = pe::run_sweep(suite, spec);

  const Pair reverse{Model::OmpThreads, Model::Cuda};
  const std::string f2 = pe::figure2_report(suite, spec, reverse, tasks);
  EXPECT_NE(f2.find("tabby-test"), std::string::npos);
  EXPECT_NE(f2.find("picoXOR-test"), std::string::npos);
  // Only the spec-selected techniques render blocks; SWE-agent is not
  // selected by this spec.
  EXPECT_NE(f2.find("Non-agentic"), std::string::npos);
  EXPECT_EQ(f2.find("SWE-agent"), std::string::npos);

  const std::string t1 = pe::table1_report(suite);
  EXPECT_NE(t1.find("picoXOR-test"), std::string::npos);
}
