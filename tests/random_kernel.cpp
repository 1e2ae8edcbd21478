#include "random_kernel.hpp"

#include <string>
#include <utility>

#include "common/rng.hpp"
#include "ir/builder.hpp"

namespace hlsprof {

// The shapes that stress event ordering — the interleavings where a wrong
// dispatch/batching rule would reorder commits.
ir::Kernel random_kernel(std::uint64_t seed) {
  SplitMix64 rng(seed);
  const int threads = 1 + int(rng.next_below(6));  // 1..6
  const int locks = 1 + int(rng.next_below(3));    // 1..3
  const std::int64_t n = 64 + std::int64_t(rng.next_below(4)) * 64;
  const int phases = 2 + int(rng.next_below(3));  // 2..4

  ir::KernelBuilder kb("rand" + std::to_string(seed), threads);
  auto x = kb.ptr_arg("x", ir::Type::f32(), ir::MapDir::to, n);
  auto y = kb.ptr_arg("y", ir::Type::f32(), ir::MapDir::tofrom, n);
  auto acc = kb.ptr_arg("acc", ir::Type::f32(), ir::MapDir::tofrom, locks);
  ir::Val tid = kb.thread_id();
  ir::Val nt = kb.num_threads_val();

  for (int ph = 0; ph < phases; ++ph) {
    switch (rng.next_below(3)) {
      case 0: {  // strided elementwise update
        kb.for_loop("i" + std::to_string(ph), tid, kb.c32(n), nt,
                    [&](ir::Val i) {
                      ir::Val v = kb.load(x, i) + kb.load(y, i);
                      kb.store(y, i, v);
                    });
        break;
      }
      case 1: {  // partial sum merged under a random lock
        const int lock = int(rng.next_below(std::uint64_t(locks)));
        auto part = kb.var_init("p" + std::to_string(ph), kb.cf32(0.0));
        kb.for_loop("j" + std::to_string(ph), tid, kb.c32(n), nt,
                    [&](ir::Val j) { part.set(part.get() + kb.load(x, j)); });
        kb.critical(lock, [&] {
          ir::Val idx = kb.c32(lock);
          kb.store(acc, idx, kb.load(acc, idx) + part.get());
        });
        break;
      }
      default: {  // neighbour read that is only safe behind a barrier
        kb.barrier();
        kb.for_loop("k" + std::to_string(ph), tid, kb.c32(n - 1), nt,
                    [&](ir::Val k) {
                      kb.store(y, k,
                               kb.load(y, k + std::int64_t{1}) * 0.5 +
                                   kb.load(x, k));
                    });
        kb.barrier();
        break;
      }
    }
  }
  return std::move(kb).finish();
}

}  // namespace hlsprof
