// Child-process helpers: spawn with extra environment, reap with a deadline.
// Every child the harness starts is waited for before the harness exits.
#pragma once

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "util.hpp"

extern char** environ;

namespace perfbench {

/// Start `argv[0]` with `argv`, this process' environment plus `extra_env`
/// ("KEY=value" entries, overriding), stdout redirected to `stdout_fd` when
/// it is >= 0. Returns the pid, or -1.
inline pid_t spawn_process(const std::vector<std::string>& argv,
                           const std::vector<std::string>& extra_env,
                           int stdout_fd = -1) {
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    bool overridden = false;
    for (const auto& extra : extra_env) {
      const auto key = extra.substr(0, extra.find('=') + 1);
      if (entry.rfind(key, 0) == 0) overridden = true;
    }
    if (!overridden) env_strings.push_back(entry);
  }
  for (const auto& extra : extra_env) env_strings.push_back(extra);
  std::vector<char*> envp;
  for (auto& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::vector<std::string> args = argv;
  std::vector<char*> argp;
  for (auto& s : args) argp.push_back(s.data());
  argp.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (stdout_fd >= 0) posix_spawn_file_actions_adddup2(&actions, stdout_fd, 1);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, argp[0], &actions, nullptr, argp.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

/// Reap every pid within `timeout_s`; past the deadline the rest are
/// SIGKILLed and reaped. True when every child exited with status 0.
inline bool wait_all(const std::vector<pid_t>& pids, double timeout_s) {
  std::vector<bool> done(pids.size(), false);
  bool all_ok = true;
  const double deadline = now_s() + timeout_s;
  std::size_t remaining = pids.size();
  while (remaining > 0) {
    bool progressed = false;
    for (std::size_t i = 0; i < pids.size(); ++i) {
      if (done[i]) continue;
      int status = 0;
      const pid_t reaped = ::waitpid(pids[i], &status, WNOHANG);
      if (reaped == pids[i] || reaped < 0) {
        done[i] = true;
        --remaining;
        progressed = true;
        if (reaped < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) all_ok = false;
      }
    }
    if (remaining == 0) break;
    if (now_s() > deadline) {
      for (std::size_t i = 0; i < pids.size(); ++i) {
        if (!done[i]) ::kill(pids[i], SIGKILL);
      }
      for (std::size_t i = 0; i < pids.size(); ++i) {
        if (!done[i]) ::waitpid(pids[i], nullptr, 0);
      }
      return false;
    }
    if (!progressed) ::usleep(1000);
  }
  return all_ok;
}

}  // namespace perfbench
