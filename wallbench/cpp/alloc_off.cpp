// Untraced build: no allocation counting and no replaced operator new.
#include "bench.hpp"

namespace wallbench::alloc {

bool enabled() { return false; }
void mark_bench_thread() {}
Counts counts() { return {}; }

}  // namespace wallbench::alloc
