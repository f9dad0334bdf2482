// Kernel-level differential suite: every KernelOps implementation the
// build ships (scalar, AVX2, NEON) must be bit-identical to a naive
// bit-at-a-time oracle — and to each other — on randomized inputs
// across every length 0..300, shifted (unaligned) buffers, all-zero /
// all-one edges, and garbage in the padding bits past num_bits. The
// scalar table is additionally the documented oracle for the SIMD
// tables, so both directions are checked. A kernel that reads past the
// tail-word mask, mis-handles a partial vector, or drifts from the
// scalar tally by one bit fails here before it can perturb a mined
// pattern.
#include "fpm/kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace divexp {
namespace fpm {
namespace {

constexpr size_t kMaxBits = 300;
// Extra lead words so tests can probe shifted (vector-unaligned)
// buffer starts without growing the logical bitmap.
constexpr size_t kLeadSlack = 3;

size_t WordsFor(size_t num_bits) { return (num_bits + 63) / 64; }

// The independent oracle: bit-at-a-time, no words, no masks. Both the
// scalar and SIMD tables must agree with it exactly.
bool BitAt(const uint64_t* words, size_t i) {
  return ((words[i / 64] >> (i % 64)) & 1u) != 0;
}

uint64_t NaivePopcount(const uint64_t* words, size_t num_bits) {
  uint64_t n = 0;
  for (size_t i = 0; i < num_bits; ++i) n += BitAt(words, i) ? 1 : 0;
  return n;
}

KernelTally NaiveTally(const uint64_t* rows, const uint64_t* t_mask,
                       const uint64_t* f_mask, size_t num_bits) {
  KernelTally out;
  for (size_t i = 0; i < num_bits; ++i) {
    if (!BitAt(rows, i)) continue;
    ++out.support;
    if (BitAt(t_mask, i)) ++out.t;
    if (BitAt(f_mask, i)) ++out.f;
  }
  return out;
}

// A bitmap buffer whose padding bits (past num_bits) are filled with
// garbage: the kernel contract says they must never influence any
// count, so every fixture poisons them deliberately.
std::vector<uint64_t> RandomWords(size_t num_bits, std::mt19937_64* rng,
                                  double density) {
  std::vector<uint64_t> words(kLeadSlack + WordsFor(num_bits) + 1, 0);
  std::bernoulli_distribution bit(density);
  for (size_t i = 0; i < num_bits; ++i) {
    if (bit(*rng)) words[kLeadSlack + i / 64] |= uint64_t{1} << (i % 64);
  }
  // Poison the padding: garbage above num_bits in the tail word and a
  // full garbage word after it.
  if (num_bits % 64 != 0) {
    words[kLeadSlack + num_bits / 64] |=
        (*rng)() & ~TailWordMask(num_bits);
  }
  words.back() = (*rng)();
  return words;
}

std::vector<const KernelOps*> AllKernels() {
  std::vector<const KernelOps*> all = {&ScalarKernelOps()};
  if (SimdKernelOps() != nullptr) all.push_back(SimdKernelOps());
  return all;
}

TEST(KernelDifferentialTest, PopcountMatchesOracleAllLengths) {
  std::mt19937_64 rng(0xD17E);
  for (size_t bits = 0; bits <= kMaxBits; ++bits) {
    for (double density : {0.02, 0.5, 0.97}) {
      const auto words = RandomWords(bits, &rng, density);
      const uint64_t* p = words.data() + kLeadSlack;
      const uint64_t want = NaivePopcount(p, bits);
      for (const KernelOps* ops : AllKernels()) {
        ASSERT_EQ(ops->popcount(p, bits), want)
            << ops->name << " bits=" << bits << " density=" << density;
      }
    }
  }
}

TEST(KernelDifferentialTest, AndPopcountMatchesOracleAllLengths) {
  std::mt19937_64 rng(0xA11D);
  for (size_t bits = 0; bits <= kMaxBits; ++bits) {
    const auto a = RandomWords(bits, &rng, 0.4);
    const auto b = RandomWords(bits, &rng, 0.4);
    const uint64_t* pa = a.data() + kLeadSlack;
    const uint64_t* pb = b.data() + kLeadSlack;
    uint64_t want = 0;
    for (size_t i = 0; i < bits; ++i) {
      want += (BitAt(pa, i) && BitAt(pb, i)) ? 1 : 0;
    }
    for (const KernelOps* ops : AllKernels()) {
      ASSERT_EQ(ops->and_popcount(pa, pb, bits), want)
          << ops->name << " bits=" << bits;
    }
  }
}

TEST(KernelDifferentialTest, FusedTallyEqualsOracleAndSeparateRecounts) {
  std::mt19937_64 rng(0x7A11);
  for (size_t bits = 0; bits <= kMaxBits; ++bits) {
    const auto rows = RandomWords(bits, &rng, 0.5);
    const auto t = RandomWords(bits, &rng, 0.3);
    const auto f = RandomWords(bits, &rng, 0.3);
    const uint64_t* pr = rows.data() + kLeadSlack;
    const uint64_t* pt = t.data() + kLeadSlack;
    const uint64_t* pf = f.data() + kLeadSlack;
    const KernelTally want = NaiveTally(pr, pt, pf, bits);
    for (const KernelOps* ops : AllKernels()) {
      const KernelTally got = ops->tally(pr, pt, pf, bits);
      ASSERT_EQ(got.support, want.support) << ops->name << " bits=" << bits;
      ASSERT_EQ(got.t, want.t) << ops->name << " bits=" << bits;
      ASSERT_EQ(got.f, want.f) << ops->name << " bits=" << bits;
      // The fused pass must equal three separate counting passes — the
      // exact recount the pre-kernel Apriori code performed.
      ASSERT_EQ(got.support, ops->popcount(pr, bits)) << ops->name;
      ASSERT_EQ(got.t, ops->and_popcount(pr, pt, bits)) << ops->name;
      ASSERT_EQ(got.f, ops->and_popcount(pr, pf, bits)) << ops->name;
    }
  }
}

TEST(KernelDifferentialTest, AndAssignTallyWritesExactIntersection) {
  std::mt19937_64 rng(0xAA57);
  for (size_t bits = 0; bits <= kMaxBits; ++bits) {
    const auto a = RandomWords(bits, &rng, 0.6);
    const auto b = RandomWords(bits, &rng, 0.6);
    const auto t = RandomWords(bits, &rng, 0.3);
    const auto f = RandomWords(bits, &rng, 0.3);
    const uint64_t* pa = a.data() + kLeadSlack;
    const uint64_t* pb = b.data() + kLeadSlack;
    const uint64_t* pt = t.data() + kLeadSlack;
    const uint64_t* pf = f.data() + kLeadSlack;
    const size_t nw = WordsFor(bits);
    for (const KernelOps* ops : AllKernels()) {
      std::vector<uint64_t> dst(nw + 1, 0xDEADBEEFDEADBEEFull);
      const KernelTally got =
          ops->and_assign_tally(dst.data(), pa, pb, pt, pf, bits);
      // Tallies match a tally over the materialized intersection.
      std::vector<uint64_t> expect_words(nw + 1, 0);
      for (size_t w = 0; w < nw; ++w) expect_words[w] = pa[w] & pb[w];
      const KernelTally want =
          NaiveTally(expect_words.data(), pt, pf, bits);
      ASSERT_EQ(got.support, want.support) << ops->name << " bits=" << bits;
      ASSERT_EQ(got.t, want.t) << ops->name << " bits=" << bits;
      ASSERT_EQ(got.f, want.f) << ops->name << " bits=" << bits;
      // dst holds the exact word-wise AND on every valid bit, and the
      // kernel never wrote past the word array.
      for (size_t i = 0; i < bits; ++i) {
        ASSERT_EQ(BitAt(dst.data(), i),
                  BitAt(pa, i) && BitAt(pb, i))
            << ops->name << " bits=" << bits << " i=" << i;
      }
      ASSERT_EQ(dst[nw], 0xDEADBEEFDEADBEEFull)
          << ops->name << " wrote past the last word, bits=" << bits;
    }
  }
}

// The contract lets dst alias a or b, and chained intersections (the
// SON merge's recount) run in place: dst == a. The result must be the
// AND of the inputs as they were before the call, with tails poisoned.
TEST(KernelDifferentialTest, AndAssignTallyInPlaceMatchesOracle) {
  std::mt19937_64 rng(0x1A5E);
  for (size_t bits = 0; bits <= kMaxBits; ++bits) {
    const auto a = RandomWords(bits, &rng, 0.6);
    const auto b = RandomWords(bits, &rng, 0.6);
    const auto t = RandomWords(bits, &rng, 0.3);
    const auto f = RandomWords(bits, &rng, 0.3);
    const uint64_t* pa = a.data() + kLeadSlack;
    const uint64_t* pb = b.data() + kLeadSlack;
    const uint64_t* pt = t.data() + kLeadSlack;
    const uint64_t* pf = f.data() + kLeadSlack;
    const size_t nw = WordsFor(bits);
    std::vector<uint64_t> expect_words(nw + 1, 0);
    for (size_t w = 0; w < nw; ++w) expect_words[w] = pa[w] & pb[w];
    const KernelTally want = NaiveTally(expect_words.data(), pt, pf, bits);
    for (const KernelOps* ops : AllKernels()) {
      for (const bool alias_a : {true, false}) {
        // In-place copy of the aliased input, tail garbage included,
        // with a sentinel word after it.
        const uint64_t* src = alias_a ? pa : pb;
        std::vector<uint64_t> dst(src, src + nw);
        dst.push_back(0xDEADBEEFDEADBEEFull);
        const KernelTally got =
            alias_a
                ? ops->and_assign_tally(dst.data(), dst.data(), pb, pt, pf,
                                        bits)
                : ops->and_assign_tally(dst.data(), pa, dst.data(), pt, pf,
                                        bits);
        SCOPED_TRACE(std::string(ops->name) + " bits=" +
                     std::to_string(bits) +
                     (alias_a ? " dst==a" : " dst==b"));
        ASSERT_EQ(got.support, want.support);
        ASSERT_EQ(got.t, want.t);
        ASSERT_EQ(got.f, want.f);
        for (size_t i = 0; i < bits; ++i) {
          ASSERT_EQ(BitAt(dst.data(), i), BitAt(pa, i) && BitAt(pb, i))
              << "i=" << i;
        }
        ASSERT_EQ(dst[nw], 0xDEADBEEFDEADBEEFull);
        // A second in-place pass over its own output is idempotent.
        const KernelTally again = ops->and_assign_tally(
            dst.data(), dst.data(), alias_a ? pb : pa, pt, pf, bits);
        ASSERT_EQ(again.support, want.support);
        ASSERT_EQ(again.t, want.t);
        ASSERT_EQ(again.f, want.f);
      }
    }
  }
}

TEST(KernelDifferentialTest, AllZeroAndAllOneEdges) {
  for (size_t bits : {0ul, 1ul, 63ul, 64ul, 65ul, 127ul, 128ul, 129ul,
                      255ul, 256ul, 300ul}) {
    const size_t nw = WordsFor(bits);
    std::vector<uint64_t> zeros(nw + 1, 0);
    std::vector<uint64_t> ones(nw + 1, ~uint64_t{0});
    // Garbage beyond num_bits even in the "all zero" fixture.
    if (nw > 0) zeros[nw - 1] |= ~TailWordMask(bits);
    zeros[nw] = ~uint64_t{0};
    for (const KernelOps* ops : AllKernels()) {
      ASSERT_EQ(ops->popcount(zeros.data(), bits), 0u)
          << ops->name << " bits=" << bits;
      ASSERT_EQ(ops->popcount(ones.data(), bits), bits)
          << ops->name << " bits=" << bits;
      ASSERT_EQ(ops->and_popcount(zeros.data(), ones.data(), bits), 0u)
          << ops->name << " bits=" << bits;
      ASSERT_EQ(ops->and_popcount(ones.data(), ones.data(), bits), bits)
          << ops->name << " bits=" << bits;
      const KernelTally tally =
          ops->tally(ones.data(), ones.data(), zeros.data(), bits);
      ASSERT_EQ(tally.support, bits) << ops->name;
      ASSERT_EQ(tally.t, bits) << ops->name;
      ASSERT_EQ(tally.f, 0u) << ops->name;
    }
  }
}

TEST(KernelDifferentialTest, ShiftedBuffersStayIdentical) {
  // SIMD loads must be alignment-agnostic: the same logical bitmap
  // presented at word offsets 0..kLeadSlack yields the same counts.
  std::mt19937_64 rng2(0x51F7);
  for (size_t bits : {65ul, 130ul, 192ul, 300ul}) {
    const auto base = RandomWords(bits, &rng2, 0.5);
    const size_t nw = WordsFor(bits);
    const uint64_t want =
        NaivePopcount(base.data() + kLeadSlack, bits);
    for (size_t shift = 0; shift <= kLeadSlack; ++shift) {
      std::vector<uint64_t> moved(shift + nw + 1, 0);
      std::copy(base.begin() + kLeadSlack,
                base.begin() + kLeadSlack + nw + 1,
                moved.begin() + shift);
      for (const KernelOps* ops : AllKernels()) {
        ASSERT_EQ(ops->popcount(moved.data() + shift, bits), want)
            << ops->name << " bits=" << bits << " shift=" << shift;
      }
    }
  }
}

std::vector<uint32_t> RandomSortedTids(size_t max_len, uint32_t universe,
                                       std::mt19937_64* rng) {
  std::uniform_int_distribution<size_t> len_dist(0, max_len);
  std::uniform_int_distribution<uint32_t> tid_dist(0, universe);
  std::vector<uint32_t> tids;
  const size_t len = len_dist(*rng);
  tids.reserve(len);
  for (size_t i = 0; i < len; ++i) tids.push_back(tid_dist(*rng));
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  return tids;
}

TEST(KernelDifferentialTest, IntersectMatchesSetIntersection) {
  std::mt19937_64 rng(0x1B7E);
  for (int trial = 0; trial < 400; ++trial) {
    const auto a = RandomSortedTids(kMaxBits, 512, &rng);
    const auto b = RandomSortedTids(kMaxBits, 512, &rng);
    std::vector<uint32_t> want;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(want));
    for (const KernelOps* ops : AllKernels()) {
      std::vector<uint32_t> out(std::min(a.size(), b.size()) + 1,
                                0xFFFFFFFFu);
      const size_t n = ops->intersect(a.data(), a.size(), b.data(),
                                      b.size(), out.data());
      ASSERT_EQ(n, want.size()) << ops->name << " trial=" << trial;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], want[i]) << ops->name << " trial=" << trial;
      }
    }
  }
}

TEST(KernelDifferentialTest, BoundedIntersectHonorsItsContract) {
  // Contract: a result >= min_count is the exact full intersection;
  // a result < min_count certifies the exact size is also < min_count
  // (the pruned candidate was truly infrequent, so discarding it can
  // never change the mined output).
  std::mt19937_64 rng(0xB0DD);
  for (int trial = 0; trial < 400; ++trial) {
    const auto a = RandomSortedTids(kMaxBits, 400, &rng);
    const auto b = RandomSortedTids(kMaxBits, 400, &rng);
    std::vector<uint32_t> want;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(want));
    std::uniform_int_distribution<uint64_t> bound_dist(
        0, std::min(a.size(), b.size()) + 2);
    const uint64_t min_count = bound_dist(rng);
    for (const KernelOps* ops : AllKernels()) {
      std::vector<uint32_t> out(std::min(a.size(), b.size()) + 1,
                                0xFFFFFFFFu);
      const size_t n =
          ops->intersect_bounded(a.data(), a.size(), b.data(), b.size(),
                                 out.data(), min_count);
      if (n >= min_count) {
        ASSERT_EQ(n, want.size())
            << ops->name << " trial=" << trial << " bound=" << min_count;
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], want[i]) << ops->name << " trial=" << trial;
        }
      } else {
        ASSERT_LT(want.size(), min_count)
            << ops->name << " pruned a frequent candidate, trial="
            << trial;
      }
    }
  }
}

TEST(KernelDifferentialTest, ScalarAndSimdTablesAreDistinctWhenPresent) {
  EXPECT_STREQ(ScalarKernelOps().name, "scalar");
  if (!SimdAvailable()) {
    GTEST_SKIP() << "no SIMD kernel compiled in for this target";
  }
  ASSERT_NE(SimdKernelOps(), nullptr);
  EXPECT_STRNE(SimdKernelOps()->name, "scalar");
  // Resolution: explicit scalar always wins; auto/simd pick the table.
  EXPECT_EQ(&ResolveKernel(KernelKind::kScalar), &ScalarKernelOps());
  EXPECT_EQ(&ResolveKernel(KernelKind::kSimd), SimdKernelOps());
  EXPECT_EQ(&ResolveKernel(KernelKind::kAuto), SimdKernelOps());
}

TEST(SupportUpperBoundTest, MinOverItemSupports) {
  const uint64_t supports[] = {10, 3, 7, 0, 42};
  const uint32_t items_a[] = {0, 2};
  EXPECT_EQ(SupportUpperBound(items_a, 2, supports, 5), 7u);
  const uint32_t items_b[] = {0, 1, 4};
  EXPECT_EQ(SupportUpperBound(items_b, 3, supports, 5), 3u);
  const uint32_t items_c[] = {3};
  EXPECT_EQ(SupportUpperBound(items_c, 1, supports, 5), 0u);
  // Unknown items (outside the table) bound to zero.
  const uint32_t items_d[] = {0, 9};
  EXPECT_EQ(SupportUpperBound(items_d, 2, supports, 5), 0u);
  // The empty itemset is unconstrained.
  EXPECT_EQ(SupportUpperBound(nullptr, 0, supports, 5),
            ~uint64_t{0});
}

}  // namespace
}  // namespace fpm
}  // namespace divexp
