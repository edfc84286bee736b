#include "common/exec_context.h"

#include "common/thread_pool.h"

namespace skyline {

size_t ExecContext::WorkerThreads() const {
  return ClampThreadsToHardware(threads);
}

}  // namespace skyline
