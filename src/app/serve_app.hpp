// The `ld_serve` serving binary, as a library so the test suite can drive it
// in-process (same pattern as cli_app).
//
// usage: ld_serve [<workload>=<model.ldm|trace.csv> ...] [flags]
//
// Each positional argument registers a workload: a .ldm file is loaded as a
// pre-tuned model; a .csv trace is quick-trained at startup (and its history
// is pre-ingested so PREDICT works immediately). The process then speaks the
// newline-delimited protocol of serving/protocol.hpp on stdin/stdout, or
// replays a command file with --replay (testable without sockets).
//
// flags:
//   --replay FILE        read commands from FILE instead of stdin
//   --checkpoint-dir D   persist models on publish; warm-start from D
//   --history N          per-workload history cap (default 4096)
//   --threads N          resize the shared thread pool
//   --no-retrain         disable drift-triggered background retraining
//   --interval M         CSV trace interval minutes (default 30)
//   --epochs E           quick-train epoch budget (default 20)
//   --seed S             quick-train seed (default 2020)
#pragma once

#include <iosfwd>

namespace ld::app {

/// Entry point used by both serve_main.cpp and the tests. Reads protocol
/// commands from `in` (or the --replay file), writes responses to `out` and
/// diagnostics/summary to `err`. Returns a process exit code.
int run_serve(int argc, const char* const* argv, std::istream& in, std::ostream& out,
              std::ostream& err);

}  // namespace ld::app
