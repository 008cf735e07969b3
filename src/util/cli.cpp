#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace tracered {

CliArgs::CliArgs(int argc, const char* const* argv,
                 const std::vector<std::string>& booleanFlags) {
  const auto isBoolean = [&](const std::string& name) {
    return std::find(booleanFlags.begin(), booleanFlags.end(), name) !=
           booleanFlags.end();
  };
  // A declared boolean flag normally leaves the next token alone
  // (`--streaming app.trf`), but an explicit boolean word is consumed as its
  // value so the space-separated `--csv false` keeps meaning false.
  const auto isBoolWord = [](const std::string& s) {
    return s == "true" || s == "false" || s == "1" || s == "0" || s == "yes" || s == "no";
  };
  const auto dropValueless = [&](const std::string& name) {
    valueless_.erase(std::remove(valueless_.begin(), valueless_.end(), name),
                     valueless_.end());
  };
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
        occurrences_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
        dropValueless(arg.substr(0, eq));
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0 &&
                 (!isBoolean(arg) || isBoolWord(argv[i + 1]))) {
        flags_[arg] = argv[++i];
        occurrences_.emplace_back(arg, argv[i]);
        dropValueless(arg);
      } else {
        // No value token to consume: boolean sentinel. Callers with flag
        // metadata (CliApp) use flagsWithoutValues() to reject value-taking
        // flags that land here instead of silently reading "true".
        flags_[arg] = "true";
        occurrences_.emplace_back(arg, "true");
        if (!isBoolean(arg)) valueless_.push_back(arg);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

std::string CliArgs::get(const std::string& key, const std::string& dflt) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? dflt : it->second;
}

std::vector<std::string> CliArgs::getAll(const std::string& key) const {
  std::vector<std::string> values;
  for (const auto& [flag, value] : occurrences_)
    if (flag == key) values.push_back(value);
  return values;
}

std::int64_t CliArgs::getInt(const std::string& key, std::int64_t dflt) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return dflt;
  char* end = nullptr;
  errno = 0;
  const std::int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE)
    throw UsageError("bad --" + key + " value '" + it->second + "' (expected an integer)");
  return v;
}

std::int64_t CliArgs::getIntInRange(const std::string& key, std::int64_t dflt,
                                    std::int64_t lo, std::int64_t hi) const {
  if (!has(key)) return dflt;
  const std::int64_t v = getInt(key, dflt);
  if (v < lo || v > hi)
    throw UsageError("--" + key + " must be in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "] (got " + std::to_string(v) + ")");
  return v;
}

double CliArgs::getDouble(const std::string& key, double dflt) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return dflt;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE)
    throw UsageError("bad --" + key + " value '" + it->second + "' (expected a number)");
  return v;
}

bool CliArgs::getBool(const std::string& key, bool dflt) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return dflt;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> CliArgs::unknownFlagErrors(
    const std::vector<std::string>& known) const {
  std::vector<std::string> errors;
  for (const auto& [flag, value] : flags_) {
    (void)value;
    if (std::find(known.begin(), known.end(), flag) != known.end()) continue;
    std::string msg = "unknown flag --" + flag;
    const std::string suggestion = nearestCandidate(flag, known);
    if (!suggestion.empty()) msg += " (did you mean --" + suggestion + "?)";
    errors.push_back(std::move(msg));
  }
  return errors;
}

void usageExit(const CliArgs& args, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", args.programName().c_str(), message.c_str());
  std::exit(2);
}

void rejectUnknownFlags(const CliArgs& args, const std::vector<std::string>& known) {
  const std::vector<std::string> errors = args.unknownFlagErrors(known);
  if (errors.empty()) return;
  for (const auto& e : errors)
    std::fprintf(stderr, "%s: %s\n", args.programName().c_str(), e.c_str());
  std::exit(2);
}

std::size_t editDistance(std::string_view a, std::string_view b) {
  // Single-row dynamic program; rows are positions in `b`.
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];  // dp[i-1][j-1]
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];  // dp[i-1][j]
      const std::size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({row[j - 1] + 1, up + 1, sub});
      diag = up;
    }
  }
  return row[b.size()];
}

std::string nearestCandidate(const std::string& word,
                             const std::vector<std::string>& candidates) {
  const std::size_t maxDistance = std::max<std::size_t>(2, word.size() / 3);
  std::string best;
  std::size_t bestDistance = maxDistance + 1;
  for (const auto& c : candidates) {
    const std::size_t d = editDistance(word, c);
    if (d < bestDistance) {
      bestDistance = d;
      best = c;
    }
  }
  return best;
}

std::string didYouMean(const std::string& word,
                       const std::vector<std::string>& candidates) {
  const std::string best = nearestCandidate(word, candidates);
  return best.empty() ? "" : " (did you mean '" + best + "'?)";
}

CliApp::CliApp(std::string name, std::string summary)
    : name_(std::move(name)), summary_(std::move(summary)) {}

void CliApp::add(CliCommand command) { commands_.push_back(std::move(command)); }

void CliApp::setVersion(std::string versionLine) {
  versionLine_ = std::move(versionLine);
}

const CliCommand* CliApp::find(const std::string& name) const {
  for (const auto& c : commands_)
    if (c.name == name) return &c;
  return nullptr;
}

std::string CliApp::help() const {
  std::ostringstream os;
  os << name_ << " — " << summary_ << "\n\n";
  os << "usage: " << name_ << " <command> [flags]\n\ncommands:\n";
  std::size_t width = 0;
  for (const auto& c : commands_) width = std::max(width, c.name.size());
  for (const auto& c : commands_) {
    os << "  " << c.name << std::string(width - c.name.size() + 2, ' ') << c.summary
       << '\n';
  }
  os << "\nRun '" << name_ << " <command> --help' for that command's flags";
  if (!versionLine_.empty()) os << "; '" << name_ << " --version' prints the version";
  os << ".\n";
  return os.str();
}

std::string CliApp::help(const CliCommand& command) const {
  std::ostringstream os;
  os << name_ << ' ' << command.name << " — " << command.summary << "\n\n";
  os << "usage: " << name_ << ' ' << command.usage << '\n';
  if (!command.flags.empty()) {
    os << "\nflags:\n";
    std::size_t width = 0;
    std::vector<std::string> heads;
    heads.reserve(command.flags.size());
    for (const auto& f : command.flags) {
      std::string head = "--" + f.name;
      if (!f.value.empty()) head += ' ' + f.value;
      width = std::max(width, head.size());
      heads.push_back(std::move(head));
    }
    for (std::size_t i = 0; i < command.flags.size(); ++i) {
      os << "  " << heads[i] << std::string(width - heads[i].size() + 2, ' ')
         << command.flags[i].help << '\n';
    }
  }
  return os.str();
}

namespace {

/// Exit-time stdout check: a writer whose reader vanished (SIGPIPE ignored,
/// so EPIPE set the FILE error flag) or whose disk filled must fail with
/// exit 1, never report success with truncated output.
int finishStdout(int rc) {
  const bool failed = std::fflush(stdout) != 0 || std::ferror(stdout) != 0;
  if (failed && rc == 0) {
    std::fprintf(stderr, "error: failed writing to stdout\n");
    return 1;
  }
  return rc;
}

}  // namespace

int CliApp::main(int argc, const char* const* argv) const {
  // --version anywhere (top level or after a subcommand) wins: every entry
  // point reports the one version string.
  if (!versionLine_.empty())
    for (int i = 1; i < argc; ++i)
      if (std::string(argv[i]) == "--version") {
        std::printf("%s\n", versionLine_.c_str());
        return finishStdout(0);
      }
  if (argc < 2) {
    std::fputs(help().c_str(), stderr);
    return 2;
  }
  const std::string first = argv[1];
  if (first == "--help" || first == "-h" || first == "help") {
    std::fputs(help().c_str(), stdout);
    return finishStdout(0);
  }
  const CliCommand* command = find(first);
  if (command == nullptr) {
    std::vector<std::string> names;
    names.reserve(commands_.size());
    for (const auto& c : commands_) names.push_back(c.name);
    const std::string msg =
        name_ + ": unknown command '" + first + "'" + didYouMean(first, names);
    std::fprintf(stderr, "%s\n\n%s", msg.c_str(), help().c_str());
    return 2;
  }

  // Parse with the command's flag metadata so boolean flags (empty value
  // metavar) never swallow a following operand (`--streaming app.trf`).
  std::vector<std::string> booleans = {"help", "h"};
  for (const auto& f : command->flags)
    if (f.value.empty()) booleans.push_back(f.name);
  const CliArgs args(argc - 1, argv + 1, booleans);
  // Single-dash -h is not a CliArgs flag (only --flags are), so it lands in
  // the positionals; recognize it there so `tracered reduce -h` prints help
  // instead of opening a file named -h, while a -h that parsed as some
  // value-taking flag's value (`--out -h`) stays a value.
  bool wantsHelp = args.getBool("help") || args.getBool("h");
  for (const auto& p : args.positional())
    if (p == "-h") wantsHelp = true;
  if (wantsHelp) {
    std::fputs(help(*command).c_str(), stdout);
    return finishStdout(0);
  }
  std::vector<std::string> known = {"help", "h"};
  for (const auto& f : command->flags) known.push_back(f.name);
  const std::vector<std::string> errors = args.unknownFlagErrors(known);
  if (!errors.empty()) {
    for (const auto& e : errors)
      std::fprintf(stderr, "%s %s: %s\n", name_.c_str(), command->name.c_str(), e.c_str());
    std::fprintf(stderr, "\n%s", help(*command).c_str());
    return 2;
  }

  // A value-taking flag with no value token to consume (trailing, or
  // followed by another --flag) fell back to the boolean sentinel "true" —
  // which would silently become e.g. an output file literally named `true`.
  // Reject it as a usage error.
  for (const auto& f : command->flags) {
    if (f.value.empty()) continue;
    const auto& missing = args.flagsWithoutValues();
    if (std::find(missing.begin(), missing.end(), f.name) != missing.end()) {
      std::fprintf(stderr, "%s %s: flag --%s requires a value %s\n\n%s", name_.c_str(),
                   command->name.c_str(), f.name.c_str(), f.value.c_str(),
                   help(*command).c_str());
      return 2;
    }
  }

  try {
    return finishStdout(command->run(args));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s %s: %s\n\n%s", name_.c_str(), command->name.c_str(),
                 e.what(), help(*command).c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s %s: %s\n", name_.c_str(), command->name.c_str(), e.what());
    return 1;
  }
}

}  // namespace tracered
