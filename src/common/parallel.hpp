// Parallel-for over an index range, handed out in ascending order.
//
// Tasks are identified by their index, so callers that write result i
// into slot i get deterministic output for any worker count — the
// scheduling order varies, the result placement does not. This is the
// execution substrate of the campaign engine.
//
// Every worker takes its next index from one shared cursor, so indices
// start in ascending order and a worker holds at most one index it has
// claimed but not started. The campaign store flushes results in index
// order, so a finished result then waits only on lower indices still in
// flight.
#pragma once

#include <cstddef>
#include <functional>

namespace prestage {

/// Resolves a requested worker count: 0 (the `--jobs 0` / auto setting)
/// becomes std::thread::hardware_concurrency(), never less than 1.
[[nodiscard]] unsigned resolve_jobs(unsigned jobs);

/// Runs body(i) exactly once for every i in [0, count) across
/// resolve_jobs(jobs) worker threads. Blocks until all tasks finish.
/// The first exception thrown by any body is rethrown on the calling
/// thread after the pool drains (remaining workers take no new index).
void parallel_for_indexed(std::size_t count, unsigned jobs,
                          const std::function<void(std::size_t)>& body);

}  // namespace prestage
