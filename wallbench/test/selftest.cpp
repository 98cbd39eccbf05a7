// Self-test of the benchmark's oracle and failure accounting: through
// the real in-process and TCP paths, a clean pool counts no failures, a
// pool with one corrupted expected sum counts some, and a pool with
// every expected sum corrupted counts every operation as failed.
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

using namespace wallbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

void flip_low_bit(BitVec& v) { v.set_bit(0, !v.bit(0)); }

void check_accounting(const char* path, const RunOptions& options,
                      Report (*run)(const RunOptions&, const Pool&)) {
  const std::string name(path);
  Pool pool = make_pool(Mix::Uniform, options.seed, options.pool_pairs);
  const Report clean = run(options, pool);
  expect(clean.attempted > 0 && clean.failed == 0,
         name + ": clean pool, " + std::to_string(clean.attempted) +
             " attempted, " + std::to_string(clean.failed) + " failed");

  flip_low_bit(pool.sum[1]);
  const Report one = run(options, pool);
  expect(one.failed > 0 && one.failed < one.attempted,
         name + ": one corrupted sum, " + std::to_string(one.attempted) +
             " attempted, " + std::to_string(one.failed) + " failed");

  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (i != 1) flip_low_bit(pool.sum[i]);
  }
  const Report all = run(options, pool);
  expect(all.attempted > 0 && all.failed == all.attempted,
         name + ": every sum corrupted, " + std::to_string(all.attempted) +
             " attempted, " + std::to_string(all.failed) + " failed");
}

}  // namespace

int main() {
  alloc::mark_bench_thread();
  RunOptions options;
  options.seed = 7;
  options.seconds = 0.5;
  options.setups_per_round = 1;
  options.pool_pairs = 4096;

  const Pool pool = make_pool(Mix::Uniform, options.seed, 16);
  BitVec off = pool.sum[3];
  flip_low_bit(off);
  expect(completion_ok(pool, 3, true, pool.sum[3], false, false),
         "oracle accepts the exact sum");
  expect(!completion_ok(pool, 3, true, off, false, false),
         "oracle rejects a sum one bit off");
  expect(!completion_ok(pool, 3, false, pool.sum[3], false, false),
         "oracle rejects a non-Ok status");
  expect(!completion_ok(pool, 3, true, pool.sum[3], false, true),
         "oracle rejects a wrong speculation that was not flagged");
  expect(completion_ok(pool, 3, true, pool.sum[3], true, true),
         "oracle accepts a flagged wrong speculation");
  expect(!completion_ok(pool, 16, true, pool.sum[3], false, false),
         "oracle rejects an index outside the pool");

  check_accounting("inproc", options, run_inproc_on);
  check_accounting("tcp", options, run_tcp_on);
  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}
