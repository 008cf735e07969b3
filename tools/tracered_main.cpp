// tracered — the command-line front door over the whole pipeline:
//
//   tracered generate NtoN_32 --out app.trf      # eval/ workload -> file
//   tracered reduce app.trf --config avgWave@0.2 --out app.trr
//   tracered info app.trr
//   tracered analyze app.trr                     # severity-cube diagnosis
//   tracered diff app.trf app.trr                # quality gate, exit 1 on lost
//   tracered diff run_a.trf run_b.trf            # regression gate
//   tracered eval app.trf app.trr --json         # Sec. 4.3 criteria
//   tracered convert app.trr --reconstruct --out approx.trf
//   tracered serve --listen unix:/tmp/tracered.sock   # ingest daemon
//   tracered reduce app.trf --remote unix:/tmp/tracered.sock --out app.trr
//
// docs/CLI.md is the reference (every cookbook block there runs in CI
// against this binary); docs/FORMATS.md and docs/SERVE.md specify the file
// formats and the daemon wire protocol.
#include "commands.hpp"

#include "util/cli.hpp"
#include "util/socket.hpp"
#include "util/version.hpp"

int main(int argc, char** argv) {
  using namespace tracered;
  // A vanished reader (head, a closed pipe, a dead daemon) must surface as a
  // write error and exit 1, never a SIGPIPE process kill.
  util::ignoreSigpipe();
  CliApp app("tracered",
             "similarity-based trace reduction over trace files (Mohror & "
             "Karavanic, SC 2009)");
  app.setVersion(util::kVersionLine);
  app.add(tools::makeGenerateCommand());
  app.add(tools::makeReduceCommand());
  app.add(tools::makeInfoCommand());
  app.add(tools::makeConvertCommand());
  app.add(tools::makeAnalyzeCommand());
  app.add(tools::makeDiffCommand());
  app.add(tools::makeEvalCommand());
  app.add(tools::makeServeCommand());
  return app.main(argc, argv);
}
