// Work-stealing parallel-for over an index range.
//
// Tasks are identified by their index, so callers that write result i
// into slot i get deterministic output for any worker count — the
// scheduling order varies, the result placement does not. This is the
// execution substrate for the campaign engine (and for batches of
// hand-built machines, such as the CLGP ablation bench).
//
// The stealing scheme: each worker owns a deque preloaded with a
// contiguous chunk of the index space and pops from its front; an idle
// worker steals from the back of the first non-empty victim. Contiguous
// chunks keep early indices on early workers, which lets the campaign
// store flush results in order while a run is still in flight.
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
/// thread after the pool drains (remaining workers stop stealing).
void parallel_for_indexed(std::size_t count, unsigned jobs,
                          const std::function<void(std::size_t)>& body);

}  // namespace prestage
