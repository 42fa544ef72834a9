// moldable_job_submission: the paper's motivating scenario (Section II-A):
// "To execute a PTG on a cluster, the user first requests a time slot from
// the local job scheduler (e.g., PBS). After the application has been
// granted several processors, the PTG scheduler computes a schedule while
// trying to minimize the overall execution time of the job."
//
// This example answers the question that scenario raises: HOW MANY
// processors should the user request? It sweeps partition sizes P' <= P,
// schedules the PTG with EMTS on each partition, and combines the
// resulting makespan with a simple queue-wait model (waiting grows with
// the requested fraction of the machine) to find the request minimizing
// the total response time.

#include <cstdio>

#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"

using namespace ptgsched;

int main(int argc, char** argv) {
  CliParser cli("moldable_job_submission",
                "Sweep partition sizes for a PTG job and pick the request "
                "that minimizes queue wait + makespan.");
  cli.add_option("platform", "chti | grelon", "grelon");
  cli.add_option("model", "model1 | model2", "model2");
  cli.add_option("class", "fft | strassen | layered | irregular",
                 "irregular");
  cli.add_option("tasks", "Tasks for the DAGGEN classes", "100");
  cli.add_option("seed", "Corpus/EMTS seed", "42");
  cli.add_option("base-wait", "Queue wait for a 1-processor request [s]",
                 "60");
  cli.add_option("wait-exponent",
                 "Queue wait = base / (1 - 0.95 * P'/P)^exponent", "2");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const Cluster full = platform_by_name(cli.get("platform"));
    const auto model = make_model(cli.get("model"));
    const auto graph = std::make_shared<const Ptg>(
        corpus_by_name(cli.get("class"), static_cast<int>(cli.get_int("tasks")),
                       1, cli.get_u64("seed"))
            .front());
    const Ptg& g = *graph;

    const double base_wait = cli.get_double("base-wait");
    const double exponent = cli.get_double("wait-exponent");
    const int P = full.num_processors();

    std::printf("job '%s' (%zu tasks, %.3g GFLOP) on %s, model %s\n\n",
                g.name().c_str(), g.num_tasks(), g.total_flops() / 1e9,
                full.name().c_str(), model->name().c_str());

    std::vector<std::vector<std::string>> table;
    table.push_back({"request P'", "est. wait [s]", "makespan [s]",
                     "response [s]", "note"});
    double best_response = 0.0;
    int best_request = 0;
    // Sweep a ladder of partition sizes (powers of two plus the machine).
    std::vector<int> requests;
    for (int p = 1; p < P; p *= 2) requests.push_back(p);
    requests.push_back(P);
    for (const int request : requests) {
      const auto partition = std::make_shared<const Cluster>(
          full.name() + "-part", request, full.gflops());
      EmtsConfig cfg = emts5_config();
      cfg.seed = cli.get_u64("seed");
      const EmtsResult r =
          Emts(cfg).schedule(ProblemInstance::create(graph, model, partition));
      // Larger slices of the machine queue longer (crude backfilling-era
      // model; the point is the tradeoff's shape, not its calibration).
      const double frac = static_cast<double>(request) / P;
      const double wait = base_wait / std::pow(1.0 - 0.95 * frac, exponent);
      const double response = wait + r.makespan;
      if (best_request == 0 || response < best_response) {
        best_response = response;
        best_request = request;
      }
      table.push_back({std::to_string(request), strfmt("%.1f", wait),
                       strfmt("%.2f", r.makespan),
                       strfmt("%.2f", response), ""});
    }
    for (auto& row : table) {
      if (row[0] == std::to_string(best_request)) row[4] = "<- request this";
    }
    std::fputs(render_table(table).c_str(), stdout);
    std::printf("\nrecommended request: %d of %d processors "
                "(response %.2f s)\n", best_request, P, best_response);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "moldable_job_submission: %s\n", e.what());
    return 1;
  }
}
