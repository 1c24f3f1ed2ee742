#include "minic/runio.hpp"

namespace pareval::minic {

using support::Json;

Json to_json(const RunStats& stats) {
  Json j = Json::object();
  j.set("steps", stats.steps);
  j.set("device_kernel_launches", stats.device_kernel_launches);
  j.set("host_parallel_regions", stats.host_parallel_regions);
  j.set("target_regions", stats.target_regions);
  j.set("h2d_copies", stats.h2d_copies);
  j.set("d2h_copies", stats.d2h_copies);
  j.set("read_uninitialized", stats.read_uninitialized);
  return j;
}

Json to_json(const RunResult& result) {
  Json j = Json::object();
  j.set("ok", result.ok);
  j.set("exit_code", result.exit_code);
  j.set("stdout", result.stdout_text);
  j.set("stderr", result.stderr_text);
  Json diags = Json::array();
  for (const Diag& d : result.diags.all()) {
    Json dj = Json::object();
    dj.set("category", diag_category_key(d.category));
    dj.set("severity", d.severity == Severity::Error ? "error" : "warning");
    dj.set("message", d.message);
    dj.set("file", d.file);
    dj.set("line", static_cast<long long>(d.line));
    diags.push_back(std::move(dj));
  }
  j.set("diags", std::move(diags));
  j.set("stats", to_json(result.stats));
  return j;
}

}  // namespace pareval::minic
