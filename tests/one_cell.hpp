#pragma once
// One-cell sweeps for the tests: the spec that selects exactly one
// (app, technique, LLM, pair) cell of the paper suite, and that cell's
// TaskResult through run_sweep.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "eval/harness.hpp"

inline pareval::eval::SweepSpec one_cell_spec(
    const std::string& app, pareval::llm::Technique technique,
    const std::string& llm, const pareval::llm::Pair& pair, int samples,
    std::uint64_t seed = pareval::eval::SweepSpec{}.seed) {
  pareval::eval::SweepSpec spec;
  spec.apps = {app};
  spec.techniques = {pareval::llm::technique_key(technique)};
  spec.llms = {llm};
  spec.pairs = {pareval::llm::pair_key(pair)};
  spec.samples_per_task = samples;
  spec.seed = seed;
  return spec;
}

inline pareval::eval::TaskResult run_one_cell(
    const pareval::eval::SweepSpec& spec,
    const pareval::eval::HarnessConfig& config = {}) {
  auto tasks =
      pareval::eval::run_sweep(pareval::eval::Suite::paper(), spec, config);
  if (tasks.size() != 1) {
    throw std::logic_error("one_cell_spec: the spec must select one cell");
  }
  return std::move(tasks.front());
}
