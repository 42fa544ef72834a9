// dag_studio: workload generator CLI. Produces the paper's PTG classes
// (FFT, Strassen, DAGGEN-style layered/irregular) as JSON files consumable
// by workflow_scheduler, plus optional Graphviz DOT for visualization.
//
//   ./examples/dag_studio fft --points=16 --out=fft.json --dot=fft.dot
//   ./examples/dag_studio irregular --tasks=100 --jump=2 --out=g.json

#include <cstdio>

#include "daggen/corpus.hpp"
#include "ptg/algorithms.hpp"
#include "ptg/io.hpp"
#include "support/cli.hpp"

using namespace ptgsched;

int main(int argc, char** argv) {
  CliParser cli("dag_studio",
                "Generate parallel task graphs (fft | strassen | layered | "
                "irregular).");
  cli.add_positional("class", "Workload class");
  cli.add_option("out", "Output JSON path", "ptg.json");
  cli.add_option("dot", "Optional Graphviz DOT output path", "");
  cli.add_option("seed", "RNG seed", "1");
  cli.add_option("points", "FFT input points (power of two)", "16");
  cli.add_option("depth", "Strassen recursion depth", "1");
  cli.add_option("tasks", "Task count (layered/irregular)", "100");
  cli.add_option("width", "DAGGEN width parameter (0, 1]", "0.5");
  cli.add_option("regularity", "DAGGEN regularity [0, 1]", "0.5");
  cli.add_option("density", "DAGGEN density (0, 1]", "0.5");
  cli.add_option("jump", "DAGGEN jump (0 = layered)", "0");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const std::string cls = cli.positional("class");
    Rng rng(cli.get_u64("seed"));

    Ptg g;
    if (cls == "fft") {
      g = make_fft_ptg(static_cast<int>(cli.get_int("points")), rng);
    } else if (cls == "strassen") {
      g = make_strassen_ptg(rng, static_cast<int>(cli.get_int("depth")));
    } else if (cls == "layered" || cls == "irregular") {
      RandomDagParams params;
      params.num_tasks = static_cast<int>(cli.get_int("tasks"));
      params.width = cli.get_double("width");
      params.regularity = cli.get_double("regularity");
      params.density = cli.get_double("density");
      params.jump = cls == "layered"
                        ? 0
                        : std::max(1, static_cast<int>(cli.get_int("jump")));
      g = make_random_ptg(params, rng);
    } else {
      std::fprintf(stderr, "dag_studio: unknown class '%s'\n", cls.c_str());
      return 1;
    }

    save_ptg(g, cli.get("out"));
    std::printf(
        "generated '%s': %zu tasks, %zu edges, %d levels, width %zu, "
        "%.3g GFLOP total\n-> %s\n",
        g.name().c_str(), g.num_tasks(), g.num_edges(),
        num_precedence_levels(g), max_level_width(g), g.total_flops() / 1e9,
        cli.get("out").c_str());

    if (!cli.get("dot").empty()) {
      std::FILE* f = std::fopen(cli.get("dot").c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "dag_studio: cannot write %s\n",
                     cli.get("dot").c_str());
        return 1;
      }
      const std::string dot = ptg_to_dot(g);
      std::fwrite(dot.data(), 1, dot.size(), f);
      std::fclose(f);
      std::printf("-> %s (render with: dot -Tsvg)\n", cli.get("dot").c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dag_studio: %s\n", e.what());
    return 1;
  }
}
