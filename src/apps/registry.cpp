#include "apps/app.hpp"

#include <cmath>
#include <cstdlib>

#include "support/strings.hpp"

namespace pareval::apps {

const char* model_name(Model m) {
  switch (m) {
    case Model::OmpThreads: return "OpenMP Threads";
    case Model::OmpOffload: return "OpenMP Offload";
    case Model::Cuda: return "CUDA";
    case Model::Kokkos: return "Kokkos";
  }
  return "?";
}

const char* model_key(Model m) {
  switch (m) {
    case Model::OmpThreads: return "omp_threads";
    case Model::OmpOffload: return "omp_offload";
    case Model::Cuda: return "cuda";
    case Model::Kokkos: return "kokkos";
  }
  return "?";
}

bool model_from_key(const std::string& key, Model* out) {
  for (const auto m : {Model::OmpThreads, Model::OmpOffload, Model::Cuda,
                       Model::Kokkos}) {
    if (key == model_key(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

const std::vector<const AppSpec*>& all_apps() {
  static const std::vector<const AppSpec*> kApps = {
      &nanoxor_app(),  &microxorh_app(), &microxor_app(),
      &simplemoc_app(), &xsbench_app(),  &llmc_app()};
  return kApps;
}

const AppSpec* find_app(const std::string& name) {
  for (const AppSpec* app : all_apps()) {
    if (app->name == name) return app;
  }
  return nullptr;
}

bool outputs_match(const std::string& got, const std::string& want,
                   double tolerance) {
  const auto gt = support::split_ws(got);
  const auto wt = support::split_ws(want);
  if (gt.size() != wt.size()) return false;
  for (std::size_t i = 0; i < gt.size(); ++i) {
    if (gt[i] == wt[i]) continue;
    // Numeric comparison.
    char* gend = nullptr;
    char* wend = nullptr;
    const double gv = std::strtod(gt[i].c_str(), &gend);
    const double wv = std::strtod(wt[i].c_str(), &wend);
    const bool g_num = gend != gt[i].c_str() && *gend == '\0';
    const bool w_num = wend != wt[i].c_str() && *wend == '\0';
    if (!g_num || !w_num) return false;
    const double scale = std::max({std::fabs(gv), std::fabs(wv), 1e-12});
    if (std::fabs(gv - wv) > tolerance * scale + 1e-12) return false;
  }
  return true;
}

}  // namespace pareval::apps
