// deepsz_tool CLI contract: every subcommand listed by `--help` must itself
// answer `--help` with exit 0, and the documented exit-code table must hold.
// The subcommand inventory is parsed from the tool's own usage text, so a
// subcommand added without `--help` support fails here automatically.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "tests/lossless/corrupt_blosc_frame.h"

namespace {

#ifndef DEEPSZ_TOOL_PATH
#error "DEEPSZ_TOOL_PATH must be defined by the build"
#endif

struct RunResult {
  int exit_code = -1;
  std::string stdout_text;
};

/// Runs the tool; stderr is dropped, or captured with stdout when
/// `with_stderr` is set.
RunResult run_tool(const std::string& args, bool with_stderr = false) {
  const std::string cmd = std::string(DEEPSZ_TOOL_PATH) + " " + args +
                          (with_stderr ? " 2>&1" : " 2>/dev/null");
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  RunResult r;
  std::array<char, 4096> buf;
  std::size_t n;
  while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.stdout_text.append(buf.data(), n);
  }
  const int status = ::pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

/// Subcommand names parsed from the tool's own `--help`: the two-space
/// indented lines between the "commands" banner and the spec paragraph.
std::vector<std::string> list_subcommands() {
  auto help = run_tool("--help");
  EXPECT_EQ(help.exit_code, 0);
  std::vector<std::string> names;
  std::size_t pos = 0;
  while (pos < help.stdout_text.size()) {
    std::size_t eol = help.stdout_text.find('\n', pos);
    if (eol == std::string::npos) eol = help.stdout_text.size();
    const std::string line = help.stdout_text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.size() < 4 || line.compare(0, 2, "  ") != 0) continue;
    const std::string name = line.substr(2, line.find(' ', 2) - 2);
    // Skip the exit-code table rows ("  0  success", ...).
    if (name.empty() || !std::islower(static_cast<unsigned char>(name[0]))) {
      continue;
    }
    names.push_back(name);
  }
  return names;
}

TEST(ToolCli, HelpListsTheExpectedSubcommands) {
  const auto subs = list_subcommands();
  EXPECT_GE(subs.size(), 13u) << "usage text lost subcommands";
  auto has = [&](const char* name) {
    return std::find(subs.begin(), subs.end(), name) != subs.end();
  };
  EXPECT_TRUE(has("codecs"));
  EXPECT_TRUE(has("compress"));
  EXPECT_TRUE(has("compare"));
  EXPECT_TRUE(has("serve"));
  EXPECT_TRUE(has("serve-bench"));
  EXPECT_TRUE(has("model-info"));
}

TEST(ToolCli, EverySubcommandAnswersHelpWithExitZero) {
  for (const auto& sub : list_subcommands()) {
    auto r = run_tool(sub + " --help");
    EXPECT_EQ(r.exit_code, 0) << sub << " --help exited " << r.exit_code;
    EXPECT_NE(r.stdout_text.find("usage: deepsz_tool " + sub),
              std::string::npos)
        << sub << " --help printed:\n" << r.stdout_text;
    EXPECT_NE(r.stdout_text.find("exit codes:"), std::string::npos) << sub;
    // -h works anywhere in the argument list, too.
    EXPECT_EQ(run_tool(sub + " some args -h").exit_code, 0) << sub;
  }
}

TEST(ToolCli, TopLevelHelpVariants) {
  EXPECT_EQ(run_tool("--help").exit_code, 0);
  EXPECT_EQ(run_tool("-h").exit_code, 0);
  EXPECT_EQ(run_tool("help").exit_code, 0);
}

TEST(ToolCli, DocumentedExitCodes) {
  EXPECT_EQ(run_tool("").exit_code, 2);                      // no command
  EXPECT_EQ(run_tool("no-such-command").exit_code, 2);       // unknown cmd
  EXPECT_EQ(run_tool("no-such-command --help").exit_code, 2);
  EXPECT_EQ(run_tool("model-info /no/such/file").exit_code, 1);  // runtime

  const std::string f32 = ::testing::TempDir() + "tool_cli_test.f32";
  {
    std::ofstream out(f32, std::ios::binary);
    const float v[4] = {0.1f, 0.2f, 0.3f, 0.4f};
    out.write(reinterpret_cast<const char*>(v), sizeof v);
  }
  const std::string sz = f32 + ".sz";
  EXPECT_EQ(run_tool("pack " + f32 + " " + sz + " no-such-codec").exit_code,
            3);  // unknown codec
  EXPECT_EQ(run_tool("sz-compress " + f32 + " " + sz + " not-a-number")
                .exit_code,
            4);  // bad argument value
  std::remove(f32.c_str());
  std::remove(sz.c_str());
}

TEST(ToolCli, UnpackOfCorruptMultiBlockFrameExitsOne) {
  // The frame's blocks decode on the tool's thread pool; the one that
  // throws must end the run as a runtime error (exit 1), not an abort.
  const std::string in = ::testing::TempDir() + "tool_cli_corrupt.blosc";
  const std::string out = in + ".out";
  {
    const auto frame = deepsz::testing::corrupt_multi_block_blosc_frame();
    std::ofstream f(in, std::ios::binary);
    f.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
  }
  const auto r = run_tool("unpack " + in + " " + out, /*with_stderr=*/true);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.stdout_text.find("blosc_like:"), std::string::npos)
      << r.stdout_text;
  std::remove(in.c_str());
  std::remove(out.c_str());
}

}  // namespace
