#include "eval/spec.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "eval/suite.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace pareval::eval {

using support::Json;

SweepSpec SweepSpec::paper() {
  SweepSpec spec;
  TechniqueGate swe;
  swe.technique = llm::technique_key(llm::Technique::SweAgent);
  swe.llms = {"gpt-4o-mini"};
  swe.pairs = {llm::pair_key({apps::Model::Cuda, apps::Model::Kokkos})};
  swe.apps = {"nanoXOR", "microXORh", "microXOR", "SimpleMOC-kernel"};
  spec.gates.push_back(std::move(swe));
  return spec;
}

namespace {

bool selects(const std::vector<std::string>& list, const std::string& name) {
  return list.empty() ||
         std::find(list.begin(), list.end(), name) != list.end();
}

}  // namespace

bool SweepSpec::selects_llm(const std::string& llm) const {
  return selects(llms, llm);
}

bool SweepSpec::selects_pair(const llm::Pair& pair) const {
  return selects(pairs, llm::pair_key(pair));
}

bool SweepSpec::selects_app(const std::string& app) const {
  return selects(apps, app);
}

bool SweepSpec::selects_technique(llm::Technique technique) const {
  return selects(techniques, llm::technique_key(technique));
}

bool SweepSpec::gate_allows(llm::Technique technique, const std::string& llm,
                            const llm::Pair& pair,
                            const std::string& app) const {
  const std::string key = llm::technique_key(technique);
  for (const TechniqueGate& gate : gates) {
    if (gate.technique != key) continue;
    if (!selects(gate.llms, llm) ||
        !selects(gate.pairs, llm::pair_key(pair)) ||
        !selects(gate.apps, app)) {
      return false;
    }
  }
  return true;
}

bool SweepSpec::gate_allows_pair(llm::Technique technique,
                                 const llm::Pair& pair) const {
  const std::string key = llm::technique_key(technique);
  for (const TechniqueGate& gate : gates) {
    if (gate.technique == key && !selects(gate.pairs, llm::pair_key(pair))) {
      return false;
    }
  }
  return true;
}

std::string SweepSpec::validate(const Suite& suite) const {
  for (const std::string& name : llms) {
    if (suite.find_profile(name) == nullptr) {
      return "unknown LLM profile '" + name + "'";
    }
  }
  for (const std::string& name : apps) {
    if (suite.find_app(name) == nullptr) {
      return "unknown application '" + name + "'";
    }
  }
  for (const std::string& key : pairs) {
    llm::Pair pair;
    if (!llm::pair_from_key(key, &pair)) {
      return "malformed pair key '" + key + "'";
    }
    if (!suite.has_pair(pair)) {
      return "pair '" + key + "' is not registered in the suite";
    }
  }
  for (const std::string& key : techniques) {
    llm::Technique technique;
    if (!llm::technique_from_key(key, &technique)) {
      return "unknown technique key '" + key + "'";
    }
    if (!suite.has_technique(technique)) {
      return "technique '" + key + "' is not registered in the suite";
    }
  }
  for (const TechniqueGate& gate : gates) {
    llm::Technique technique;
    if (!llm::technique_from_key(gate.technique, &technique)) {
      return "gate with unknown technique key '" + gate.technique + "'";
    }
    // A typo inside a gate list would silently drop every cell of the
    // technique (nothing could ever match it), so gate entries must
    // resolve too.
    for (const std::string& name : gate.llms) {
      if (suite.find_profile(name) == nullptr) {
        return "gate '" + gate.technique + "' lists unknown LLM profile '" +
               name + "'";
      }
    }
    for (const std::string& name : gate.apps) {
      if (suite.find_app(name) == nullptr) {
        return "gate '" + gate.technique + "' lists unknown application '" +
               name + "'";
      }
    }
    for (const std::string& key : gate.pairs) {
      llm::Pair pair;
      if (!llm::pair_from_key(key, &pair) || !suite.has_pair(pair)) {
        return "gate '" + gate.technique + "' lists unknown pair '" + key +
               "'";
      }
    }
  }
  if (samples_per_task < 1) return "samples_per_task must be >= 1";
  return "";
}

// --- JSON codec -------------------------------------------------------------

namespace {

constexpr const char* kSpecFormat = "pareval-sweep-spec";

Json strings_to_json(const std::vector<std::string>& list) {
  Json arr = Json::array();
  for (const std::string& s : list) arr.push_back(s);
  return arr;
}

bool strings_from_json(const Json& j, std::vector<std::string>* out) {
  out->clear();
  if (j.is_null()) return true;  // omitted list in a hand-written spec = all
  if (!j.is_array()) return false;
  for (const Json& item : j.items()) {
    if (!item.is_string()) return false;
    out->push_back(item.as_string());
  }
  return true;
}

/// Seeds round-trip as 16-digit hex (exact for all 64 bits), but a
/// hand-written spec naturally says `"seed": 1070` — accept both. A
/// number must be a non-negative JSON integer (a double is rejected, not
/// truncated).
bool seed_from_json(const Json& j, std::uint64_t* out) {
  if (j.is_number()) {
    if (j.type() != Json::Type::Int || j.as_int() < 0) return false;
    *out = static_cast<std::uint64_t>(j.as_int());
    return true;
  }
  return support::u64_from_hex(j.as_string(), out);
}

Json gate_to_json(const TechniqueGate& gate) {
  Json j = Json::object();
  j.set("technique", gate.technique);
  j.set("llms", strings_to_json(gate.llms));
  j.set("pairs", strings_to_json(gate.pairs));
  j.set("apps", strings_to_json(gate.apps));
  return j;
}

bool gate_from_json(const Json& j, TechniqueGate* out) {
  if (!j.is_object() || !j["technique"].is_string()) return false;
  out->technique = j["technique"].as_string();
  return strings_from_json(j["llms"], &out->llms) &&
         strings_from_json(j["pairs"], &out->pairs) &&
         strings_from_json(j["apps"], &out->apps);
}

}  // namespace

Json to_json(const SweepSpec& spec) {
  Json j = Json::object();
  j.set("format", kSpecFormat);
  j.set("llms", strings_to_json(spec.llms));
  j.set("pairs", strings_to_json(spec.pairs));
  j.set("apps", strings_to_json(spec.apps));
  j.set("techniques", strings_to_json(spec.techniques));
  j.set("samples_per_task", spec.samples_per_task);
  j.set("seed", support::u64_to_hex(spec.seed));
  Json gates = Json::array();
  for (const TechniqueGate& gate : spec.gates) {
    gates.push_back(gate_to_json(gate));
  }
  j.set("gates", std::move(gates));
  return j;
}

bool from_json(const Json& j, SweepSpec* out) {
  if (!j.is_object() || j["format"].as_string() != kSpecFormat) return false;
  if (!strings_from_json(j["llms"], &out->llms) ||
      !strings_from_json(j["pairs"], &out->pairs) ||
      !strings_from_json(j["apps"], &out->apps) ||
      !strings_from_json(j["techniques"], &out->techniques)) {
    return false;
  }
  // Omitted samples/seed/gates fall back to the defaults, so a minimal
  // hand-written spec is just {"format": ..., "llms": [...]}.
  out->samples_per_task = SweepSpec{}.samples_per_task;
  if (const Json& n = j["samples_per_task"]; !n.is_null()) {
    int samples = 0;
    if (!support::index_from_json(n, &samples) || samples < 1) return false;
    out->samples_per_task = samples;
  }
  out->seed = SweepSpec{}.seed;
  if (!j["seed"].is_null() && !seed_from_json(j["seed"], &out->seed)) {
    return false;
  }
  out->gates.clear();
  if (!j["gates"].is_null()) {
    if (!j["gates"].is_array()) return false;
    for (const Json& g : j["gates"].items()) {
      TechniqueGate gate;
      if (!gate_from_json(g, &gate)) return false;
      out->gates.push_back(std::move(gate));
    }
  }
  return true;
}

std::uint64_t spec_hash(const SweepSpec& spec) {
  // Hash a canonicalized copy: selection lists (and per-gate lists) sorted
  // and deduplicated, gates sorted by their serialized form. Two specs
  // that differ only in list order therefore hash identically, while any
  // semantic difference (selection, samples, seed, gating) changes the
  // digest. The digest is the stable_hash of the canonical JSON dump, so
  // it is reproducible across processes and platforms.
  SweepSpec canon = spec;
  auto canonicalize = [](std::vector<std::string>& list) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  };
  canonicalize(canon.llms);
  canonicalize(canon.pairs);
  canonicalize(canon.apps);
  canonicalize(canon.techniques);
  for (TechniqueGate& gate : canon.gates) {
    canonicalize(gate.llms);
    canonicalize(gate.pairs);
    canonicalize(gate.apps);
  }
  std::vector<std::string> gate_dumps;
  for (const TechniqueGate& gate : canon.gates) {
    gate_dumps.push_back(gate_to_json(gate).dump());
  }
  std::sort(gate_dumps.begin(), gate_dumps.end());
  gate_dumps.erase(std::unique(gate_dumps.begin(), gate_dumps.end()),
                   gate_dumps.end());
  canon.gates.clear();

  std::uint64_t h = support::stable_hash(to_json(canon).dump());
  for (const std::string& dump : gate_dumps) {
    h = support::SplitMix64(h ^ support::stable_hash(dump)).next();
  }
  return h;
}

bool load_spec_file(const std::string& path, SweepSpec* out,
                    std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot read " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string parse_error;
  const auto root = Json::parse(buf.str(), &parse_error);
  if (!root) {
    if (error != nullptr) *error = path + ": JSON parse error: " + parse_error;
    return false;
  }
  if (!from_json(*root, out)) {
    if (error != nullptr) {
      *error = path + ": not a " + std::string(kSpecFormat) + " document";
    }
    return false;
  }
  return true;
}

bool load_and_validate_spec(const std::string& path, const Suite& suite,
                            SweepSpec* out, std::string* error) {
  if (!load_spec_file(path, out, error)) return false;
  const std::string invalid = out->validate(suite);
  if (!invalid.empty()) {
    if (error != nullptr) *error = path + ": invalid spec: " + invalid;
    return false;
  }
  return true;
}

std::string spec_file_text(const SweepSpec& spec) {
  return to_json(spec).dump() + "\n";
}

}  // namespace pareval::eval
