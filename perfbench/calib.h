// The reference kernel: a fixed amount of benchmark-owned work, timed on
// a CPU right beside each measured phase on that CPU.
//
// On a shared VM a vCPU runs slower while whatever shares its physical
// core is busy, and such spells last from tens of milliseconds to
// minutes. A phase and the reference kernel timed next to it on the same
// CPU see the same spell, so their ratio cancels it. The kernel is a
// table-driven dispatch loop with unpredictable branches, as the enclave's
// match and interpreter loops are; a compute-only kernel slowed about half
// as much as the egress path in the same spells, this one about as much.
#pragma once

#include <cstdint>
#include <vector>

#include "ledger.h"
#include "workload.h"

namespace perfbench {

class ReferenceKernel {
 public:
  // The kernel's time on an idle core of the machine the bounds were
  // fixed on (a 2.0 GHz Xeon, Sapphire Rapids): normalised times are
  // stated at that speed.
  static constexpr double kIdleNs = 500'000;

  ReferenceKernel() : ops_(kOps) {
    // A fixed op sequence, the same on every run and seed.
    for (std::size_t i = 0; i < kOps; ++i) {
      ops_[i] = static_cast<std::uint8_t>(mix64(i) % 8);
    }
  }

  // Runs the kernel once on the calling thread's CPU; its wall time in ns.
  double time() {
    const std::int64_t t0 = now_ns();
    std::uint64_t a = a_, b = b_;
    for (int r = 0; r < kRounds; ++r) {
      for (const std::uint8_t op : ops_) {
        switch (op) {
          case 0: a += b; break;
          case 1: a ^= b << 3; break;
          case 2: b = a * 3; break;
          case 3: a -= b >> 1; break;
          case 4: b ^= a; break;
          case 5: a = (a << 1) | (a >> 63); break;
          case 6: b += 7; break;
          default: a *= 5; break;
        }
      }
    }
    // Kept, so the loop is not optimised away.
    a_ = a;
    b_ = b;
    return static_cast<double>(now_ns() - t0);
  }

  // EXPERIMENT
  std::vector<std::uint64_t> tab_ = std::vector<std::uint64_t>(std::size_t{1} << 17);
  std::vector<std::uint32_t> chase_;
  double alt(int k) {
    if (chase_.empty()) {
      const std::size_t n = std::size_t{1} << 20;  // 4 MB of u32
      chase_.resize(n);
      for (std::size_t i = 0; i < n; ++i) chase_[i] = static_cast<std::uint32_t>(i);
      for (std::size_t i = n - 1; i > 0; --i) std::swap(chase_[i], chase_[mix64(i) % i]);
      for (std::size_t i = 0; i < tab_.size(); ++i) tab_[i] = mix64(i + 3);
    }
    const std::int64_t t0 = now_ns();
    std::uint64_t a = a_, b = b_;
    if (k == 0) {  // dispatch with random L2 operands
      const std::size_t m = tab_.size() - 1;
      for (int r = 0; r < 2; ++r) {
        for (const std::uint8_t op : ops_) {
          const std::uint64_t x = tab_[(a ^ b) & m];
          switch (op) {
            case 0: a += x; break;
            case 1: a ^= x << 3; break;
            case 2: b = a * 3 + x; break;
            case 3: a -= b >> 1; tab_[x & m] = a; break;
            case 4: b ^= a; break;
            case 5: a = (a << 1) | (a >> 63); break;
            case 6: b += x; break;
            default: a *= 5; break;
          }
        }
      }
    } else if (k == 1) {  // pointer chase, 4 MB
      std::uint32_t p = static_cast<std::uint32_t>(a) & ((1u << 20) - 1);
      for (int i = 0; i < 8000; ++i) p = chase_[p];
      a += p;
    } else if (k == 2) {  // current kernel + chase
      a_ = a; b_ = b;
      time();
      a = a_; b = b_;
      std::uint32_t p = static_cast<std::uint32_t>(a) & ((1u << 20) - 1);
      for (int i = 0; i < 4000; ++i) p = chase_[p];
      a += p;
    } else {  // dispatch over a 256 KB op stream
      static std::vector<std::uint8_t> big = [] {
        std::vector<std::uint8_t> v(std::size_t{1} << 18);
        for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<std::uint8_t>(mix64(i * 7) % 8);
        return v;
      }();
      for (const std::uint8_t op : big) {
        switch (op) {
          case 0: a += b; break;
          case 1: a ^= b << 3; break;
          case 2: b = a * 3; break;
          case 3: a -= b >> 1; break;
          case 4: b ^= a; break;
          case 5: a = (a << 1) | (a >> 63); break;
          case 6: b += 7; break;
          default: a *= 5; break;
        }
      }
    }
    a_ = a;
    b_ = b;
    return static_cast<double>(now_ns() - t0);
  }

 private:
  static constexpr std::size_t kOps = std::size_t{1} << 14;
  static constexpr int kRounds = 3;
  std::vector<std::uint8_t> ops_;
  std::uint64_t a_ = 1, b_ = 1;
};

}  // namespace perfbench
