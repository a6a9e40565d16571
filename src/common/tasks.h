#ifndef FRAGDB_COMMON_TASKS_H_
#define FRAGDB_COMMON_TASKS_H_

#include <cstddef>
#include <functional>

namespace fragdb {

/// Runs `fn(0)` ... `fn(n - 1)`, possibly concurrently and in any order,
/// and returns once every task has finished. A caller gives each task its
/// own output slot and merges the slots in index order, so what it
/// computes does not depend on how the tasks were scheduled; it may size
/// its split of the work by `threads`. SimEngine::ParallelFor is the one
/// concurrent runner; a default TaskRunner runs the tasks in index order
/// on the calling thread.
struct TaskRunner {
  /// How many tasks may run at once: 1 when `run` is empty.
  int threads = 1;
  std::function<void(size_t n, const std::function<void(size_t)>& fn)> run;
};

/// Runs `n` tasks on `runner`, or inline when its `run` is empty.
inline void RunTasks(const TaskRunner& runner, size_t n,
                     const std::function<void(size_t)>& fn) {
  if (runner.run) {
    runner.run(n, fn);
    return;
  }
  for (size_t i = 0; i < n; ++i) fn(i);
}

}  // namespace fragdb

#endif  // FRAGDB_COMMON_TASKS_H_
