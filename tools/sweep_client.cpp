// sweep_client: the CLI for a running sweep_server. Verbs:
//
//   submit    submit a --spec job, stream its samples, and write the
//             folded sweep as merged.json — byte-identical to the batch
//             sweep_worker + sweep_merge output for the same spec (the
//             shared eval::merged_sweep_json builder; CI compares with
//             cmp)
//   status    print the server's status document (queue depth, per-job
//             progress, per-layer cache and journal stats)
//   cancel    cancel a job by id
//   fold      ask the server to import a worker's cache::Store directory
//   shutdown  begin a graceful server drain
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "eval/shard.hpp"
#include "eval/suite.hpp"
#include "serve/client.hpp"
#include "support/strings.hpp"

using namespace pareval;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --connect ENDPOINT VERB [options]\n"
      "  --connect EP       server endpoint ('unix:/path', 'tcp:host:port',\n"
      "                     'tcp:port')\n"
      "verbs:\n"
      "  submit --spec FILE [--engine E] [--high-priority] [--no-logs]\n"
      "         [--out FILE] [--quiet]\n"
      "                     submit the spec, stream its samples (progress\n"
      "                     on stderr unless --quiet), and write the folded\n"
      "                     sweep (default: merged.json). --no-logs slims\n"
      "                     the stream to structured verdicts (the folded\n"
      "                     output then differs from the batch tools' by\n"
      "                     exactly the stripped log text)\n"
      "  status             print the server's status JSON\n"
      "  cancel JOB         cancel job JOB\n"
      "  fold DIR           import a worker's cache store directory\n"
      "  shutdown           begin a graceful server drain\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string endpoint;
  std::string verb;
  std::string spec_path;
  std::string out_path = "merged.json";
  std::string verb_arg;
  serve::Client::SubmitOptions opts;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      endpoint = argv[++i];
    } else if (arg == "--spec" && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--engine" && i + 1 < argc) {
      if (!tools::parse_engine_flag("sweep_client", argv[++i],
                                    &opts.engine)) {
        return 2;
      }
    } else if (arg == "--high-priority") {
      opts.high_priority = true;
    } else if (arg == "--no-logs") {
      opts.keep_logs = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (verb.empty()) {
      verb = arg;
    } else if (verb_arg.empty()) {
      verb_arg = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (endpoint.empty() || verb.empty()) return usage(argv[0]);

  serve::Client client;
  std::string error;
  if (!client.connect(endpoint, &error)) {
    std::fprintf(stderr, "sweep_client: %s\n", error.c_str());
    return 1;
  }

  if (verb == "status") {
    support::Json body;
    if (!client.status(&body, &error)) {
      std::fprintf(stderr, "sweep_client: %s\n", error.c_str());
      return 1;
    }
    std::printf("%s\n", body.dump().c_str());
    return 0;
  }
  if (verb == "cancel") {
    int job = 0;
    if (verb_arg.empty() || !tools::parse_int(verb_arg.c_str(), &job) ||
        job < 0) {
      return usage(argv[0]);
    }
    serve::CancelReply reply;
    if (!client.cancel(job, &reply, &error)) {
      std::fprintf(stderr, "sweep_client: %s\n", error.c_str());
      return 1;
    }
    if (!reply.found) {
      std::fprintf(stderr, "sweep_client: job %d not found or already "
                   "settled\n",
                   job);
      return 1;
    }
    std::printf("cancelled job %d (%lld queued units skipped; in-flight "
                "units finish)\n",
                job, reply.skipped_units);
    return 0;
  }
  if (verb == "fold") {
    if (verb_arg.empty()) return usage(argv[0]);
    serve::FoldReply reply;
    if (!client.fold(verb_arg, &reply, &error)) {
      std::fprintf(stderr, "sweep_client: %s\n", error.c_str());
      return 1;
    }
    if (!reply.ok) {
      std::fprintf(stderr, "sweep_client: fold failed: %s\n",
                   reply.error.c_str());
      return 1;
    }
    std::printf("folded %s into the server (%lld records published)\n",
                verb_arg.c_str(), reply.records);
    return 0;
  }
  if (verb == "shutdown") {
    if (!client.shutdown(&error)) {
      std::fprintf(stderr, "sweep_client: %s\n", error.c_str());
      return 1;
    }
    std::printf("server draining\n");
    return 0;
  }
  if (verb != "submit") return usage(argv[0]);

  if (spec_path.empty()) {
    std::fprintf(stderr, "sweep_client: submit requires --spec FILE\n");
    return 2;
  }
  const eval::Suite& suite = eval::Suite::paper();
  eval::SweepSpec spec;
  if (!tools::load_spec_flag("sweep_client", spec_path, suite, &spec)) {
    return 2;
  }

  const std::size_t total =
      eval::sweep_cells(suite, spec).size() *
      static_cast<std::size_t>(spec.samples_per_task);
  tools::ProgressMeter meter(total);
  eval::SampleProgressFn progress;
  if (!quiet) {
    progress = [&meter](const eval::SampleRecord&) { meter.tick(); };
  }

  serve::Client::JobOutcome outcome;
  if (!client.submit(spec, opts, &outcome, &error, progress)) {
    std::fprintf(stderr, "sweep_client: %s\n", error.c_str());
    return 1;
  }
  std::printf("job %d: %zu sample records (%lld cells)%s\n", outcome.job,
              outcome.records.size(), outcome.cells,
              outcome.cancelled ? " [cancelled]" : "");
  if (outcome.cancelled) {
    std::fprintf(stderr,
                 "sweep_client: job was cancelled; partial streams do not "
                 "fold into a sweep\n");
    return 1;
  }

  std::vector<eval::TaskResult> tasks;
  try {
    tasks = serve::fold_records(suite, spec, opts.engine,
                                std::move(outcome.records));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_client: %s\n", e.what());
    return 1;
  }
  const support::Json merged =
      eval::merged_sweep_json(suite, spec, 1, tasks);
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "sweep_client: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  out << merged.dump() << '\n';
  if (!out.good()) {
    std::fprintf(stderr, "sweep_client: write to %s failed\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu cells)\n", out_path.c_str(), tasks.size());
  return 0;
}
