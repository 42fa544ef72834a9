// model_explorer: inspect execution-time models interactively — the tool
// you reach for before trusting a scheduler with a model. Prints T(v, p),
// speed-up, and efficiency for p = 1..P for a configurable task under any
// registered model, and flags every non-monotonic step.
//
//   ./examples/model_explorer --model=model2 --flops=1e12 --alpha=0.05
//       --platform=grelon --max-procs=32    (one command line)

#include <cstdio>

#include "model/execution_time.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"

using namespace ptgsched;

int main(int argc, char** argv) {
  CliParser cli("model_explorer",
                "Tabulate an execution-time model over processor counts.");
  cli.add_option("model", "model1 | model2 | downey", "model2");
  cli.add_option("platform", "chti | grelon", "grelon");
  cli.add_option("flops", "Task work in FLOP", "1e12");
  cli.add_option("alpha", "Serial fraction in [0, 1]", "0.05");
  cli.add_option("max-procs", "Largest allocation to tabulate (0 = P)", "0");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const Cluster cluster = platform_by_name(cli.get("platform"));
    const auto model = make_model(cli.get("model"));

    Task t;
    t.name = "probe";
    t.flops = cli.get_double("flops");
    t.alpha = cli.get_double("alpha");
    t.data_size = t.flops;

    int max_p = static_cast<int>(cli.get_int("max-procs"));
    if (max_p <= 0 || max_p > cluster.num_processors()) {
      max_p = cluster.num_processors();
    }

    std::printf("model '%s' on %s (%d x %.1f GFLOPS), task %.3g FLOP, "
                "alpha %.3f\n\n",
                model->name().c_str(), cluster.name().c_str(),
                cluster.num_processors(), cluster.gflops(), t.flops, t.alpha);

    const double t1 = model->time(t, 1, cluster);
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"p", "T(v,p) [s]", "speedup", "efficiency", "note"});
    double prev = t1;
    int best_p = 1;
    double best_t = t1;
    for (int p = 1; p <= max_p; ++p) {
      const double tp = model->time(t, p, cluster);
      std::string note;
      if (p > 1 && tp > prev) note = "<- SLOWER than p-1";
      if (tp < best_t) {
        best_t = tp;
        best_p = p;
      }
      rows.push_back({std::to_string(p), strfmt("%.4f", tp),
                      strfmt("%.2f", t1 / tp),
                      strfmt("%.2f", t1 / tp / p), note});
      prev = tp;
    }
    std::fputs(render_table(rows).c_str(), stdout);
    std::printf("\nbest allocation: p = %d (T = %.4f s, speedup %.2f)\n",
                best_p, best_t, t1 / best_t);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "model_explorer: %s\n", e.what());
    return 1;
  }
}
