// Determinants, holder masks, the determinant log (piggyback selection,
// GC, indices, a reference-model property test) and the sender-based
// send log.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "fbl/determinant.hpp"
#include "fbl/determinant_log.hpp"
#include "fbl/send_log.hpp"

namespace rr::fbl {
namespace {

Determinant det(std::uint32_t src, Ssn ssn, std::uint32_t dst, Rsn rsn) {
  return Determinant{ProcessId{src}, ssn, ProcessId{dst}, rsn};
}

TEST(HolderMask, BitHelpers) {
  HolderMask m = holder_bit(ProcessId{0}) | holder_bit(ProcessId{5});
  EXPECT_TRUE(holds(m, ProcessId{0}));
  EXPECT_TRUE(holds(m, ProcessId{5}));
  EXPECT_FALSE(holds(m, ProcessId{1}));
  EXPECT_EQ(holder_count(m), 2);
  EXPECT_EQ(holder_count(m | kStableHolder), 3);
}

TEST(Determinant, SerdeRoundTrip) {
  const Determinant d = det(1, 42, 2, 7);
  BufWriter w;
  d.encode(w);
  EXPECT_EQ(w.size(), Determinant::kWireBytes);
  BufReader r(w.view());
  EXPECT_EQ(Determinant::decode(r), d);
}

TEST(Determinant, HeldSerdeRoundTrip) {
  const HeldDeterminant h{det(1, 42, 2, 7), 0xDEADULL};
  BufWriter w;
  h.encode(w);
  EXPECT_EQ(w.size(), h.wire_bytes());
  EXPECT_GE(w.size(), HeldDeterminant::kMinWireBytes);
  BufReader r(w.view());
  EXPECT_EQ(HeldDeterminant::decode(r), h);
}

TEST(Determinant, ToStringMentionsAllParts) {
  const auto s = to_string(det(1, 42, 2, 7));
  EXPECT_NE(s.find("p1"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("p2"), std::string::npos);
  EXPECT_NE(s.find("7"), std::string::npos);
}

struct DetLogFixture : ::testing::Test {
  DeterminantLog log;
  void SetUp() override { log.set_propagation_threshold(3); }  // f = 2
};

TEST_F(DetLogFixture, RecordReturnsTrueOnlyForNew) {
  EXPECT_TRUE(log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})}));
  EXPECT_FALSE(log.record({det(1, 1, 2, 1), holder_bit(ProcessId{3})}));
  EXPECT_EQ(log.size(), 1u);
}

TEST_F(DetLogFixture, RecordMergesHolders) {
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})});
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{3})});
  const auto* h = log.find(ProcessId{2}, 1);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(holder_count(h->holders), 2);
}

TEST_F(DetLogFixture, AddHoldersIgnoresUnknown) {
  log.add_holders(det(1, 1, 2, 1), holder_bit(ProcessId{4}));
  EXPECT_EQ(log.size(), 0u);
}

TEST_F(DetLogFixture, PiggybackSkipsKnownHolders) {
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2}) | holder_bit(ProcessId{4})});
  EXPECT_EQ(log.piggyback_for(ProcessId{4}).size(), 0u);
  EXPECT_EQ(log.piggyback_for(ProcessId{5}).size(), 1u);
}

TEST_F(DetLogFixture, PiggybackStopsAtThreshold) {
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})});
  EXPECT_EQ(log.piggyback_for(ProcessId{5}).size(), 1u);
  log.add_holders(det(1, 1, 2, 1), holder_bit(ProcessId{6}) | holder_bit(ProcessId{7}));
  // Three holders known = f+1: propagation stops.
  EXPECT_EQ(log.piggyback_for(ProcessId{5}).size(), 0u);
  EXPECT_EQ(log.active_size(), 0u);
}

TEST_F(DetLogFixture, StableHolderStopsPropagation) {
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})});
  log.add_holders(det(1, 1, 2, 1), kStableHolder);
  EXPECT_EQ(log.piggyback_for(ProcessId{5}).size(), 0u);
}

TEST_F(DetLogFixture, ForgetHolderReactivatesPropagation) {
  log.record(
      {det(1, 1, 2, 1),
       holder_bit(ProcessId{2}) | holder_bit(ProcessId{3}) | holder_bit(ProcessId{4})});
  EXPECT_EQ(log.piggyback_for(ProcessId{5}).size(), 0u);
  log.forget_holder(ProcessId{3}, 0);
  EXPECT_EQ(log.piggyback_for(ProcessId{5}).size(), 1u);
  EXPECT_FALSE(holds(log.find(ProcessId{2}, 1)->holders, ProcessId{3}));
}

TEST_F(DetLogFixture, ForgetHolderRequeuesPastTheCursor) {
  // Active at {2, 5}. 5's cursor walks past it without queuing it (5 holds
  // it); once 5 is forgotten it must be piggybacked to 5 again, although it
  // never left the active set.
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2}) | holder_bit(ProcessId{5})});
  EXPECT_TRUE(log.piggyback_for(ProcessId{5}).empty());
  log.forget_holder(ProcessId{5}, 0);
  ASSERT_EQ(log.active_size(), 1u);
  EXPECT_EQ(log.piggyback_for(ProcessId{5}).size(), 1u);
}

TEST_F(DetLogFixture, PendingIndexDrainsOnHolderMark) {
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})});
  ASSERT_EQ(log.piggyback_for(ProcessId{5}).size(), 1u);
  // Sender marks 5 as holder after piggybacking (the engine's optimistic
  // rule): the next piggyback to 5 must be empty.
  log.add_holders(det(1, 1, 2, 1), holder_bit(ProcessId{5}));
  EXPECT_EQ(log.piggyback_for(ProcessId{5}).size(), 0u);
  // Other destinations still see it.
  EXPECT_EQ(log.piggyback_for(ProcessId{6}).size(), 1u);
}

TEST_F(DetLogFixture, SliceForFiltersByDestination) {
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})});
  log.record({det(1, 2, 3, 1), holder_bit(ProcessId{3})});
  log.record({det(1, 3, 2, 2), holder_bit(ProcessId{2})});
  EXPECT_EQ(log.slice_for(holder_bit(ProcessId{2})).size(), 2u);
  EXPECT_EQ(log.slice_for(holder_bit(ProcessId{3})).size(), 1u);
  EXPECT_EQ(log.slice_for(holder_bit(ProcessId{2}) | holder_bit(ProcessId{3})).size(), 3u);
}

TEST_F(DetLogFixture, ReplayScheduleOrderedAndFiltered) {
  log.record({det(1, 3, 2, 3), holder_bit(ProcessId{2})});
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})});
  log.record({det(4, 1, 2, 2), holder_bit(ProcessId{2})});
  const auto sched = log.replay_schedule(ProcessId{2}, 1);
  ASSERT_EQ(sched.size(), 2u);
  EXPECT_EQ(sched[0].rsn, 2u);
  EXPECT_EQ(sched[1].rsn, 3u);
}

TEST_F(DetLogFixture, MaxSsnPerChannel) {
  log.record({det(1, 5, 2, 1), holder_bit(ProcessId{2})});
  log.record({det(1, 9, 2, 2), holder_bit(ProcessId{2})});
  log.record({det(4, 100, 2, 3), holder_bit(ProcessId{2})});
  EXPECT_EQ(log.max_ssn(ProcessId{1}, ProcessId{2}), 9u);
  EXPECT_EQ(log.max_ssn(ProcessId{4}, ProcessId{2}), 100u);
  EXPECT_EQ(log.max_ssn(ProcessId{7}, ProcessId{2}), 0u);
}

TEST_F(DetLogFixture, PruneDestDropsCoveredReceipts) {
  for (Rsn i = 1; i <= 10; ++i) log.record({det(1, i, 2, i), holder_bit(ProcessId{2})});
  EXPECT_EQ(log.prune_dest(ProcessId{2}, 7), 7u);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_FALSE(log.contains(ProcessId{2}, 7));
  EXPECT_TRUE(log.contains(ProcessId{2}, 8));
  // Pruned determinants leave the piggyback path too.
  EXPECT_EQ(log.piggyback_for(ProcessId{5}).size(), 3u);
}

TEST_F(DetLogFixture, ActiveTracksStableFlag) {
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})});
  log.record({det(1, 2, 2, 2), holder_bit(ProcessId{2}) | kStableHolder});
  const auto a = log.active();
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].det.rsn, 1u);
  log.add_holders(det(1, 1, 2, 1), kStableHolder);
  EXPECT_TRUE(log.active().empty());
}

TEST_F(DetLogFixture, EncodeDecodePreservesEverything) {
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})});
  log.record({det(3, 4, 5, 6), holder_bit(ProcessId{5}) | kStableHolder});
  BufWriter w;
  log.encode(w);
  BufReader r(w.view());
  DeterminantLog copy = DeterminantLog::decode(r);
  copy.set_propagation_threshold(3);
  EXPECT_EQ(copy.size(), 2u);
  const auto* h = copy.find(ProcessId{5}, 6);
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE((h->holders & kStableHolder) != 0);
  EXPECT_EQ(copy.piggyback_for(ProcessId{9}).size(), 1u);  // stable one excluded
}

TEST_F(DetLogFixture, ConflictingDeterminantAborts) {
  log.record({det(1, 1, 2, 1), holder_bit(ProcessId{2})});
  EXPECT_DEATH(log.record({det(9, 9, 2, 1), holder_bit(ProcessId{2})}),
               "conflicting determinants");
}

// Thousands of keys learned out of rsn order push the slot index through
// several doublings and the lanes through middle inserts; pruning frees
// slots that later records reuse, and pruned keys come back. Point lookups,
// ordered slices and the wire form must still agree with a plain map.
TEST_F(DetLogFixture, ManyKeysOutOfOrderMatchAMap) {
  std::vector<std::pair<std::uint32_t, Rsn>> keys;
  for (std::uint32_t d = 0; d < 8; ++d) {
    for (Rsn rsn = 1; rsn <= 600; ++rsn) keys.emplace_back(d, rsn);
  }
  Rng rng(11);
  for (std::size_t i = keys.size() - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.bounded(i + 1)]);
  }
  std::map<std::pair<ProcessId, Rsn>, Determinant> model;
  const auto learn = [&](std::uint32_t d, Rsn rsn) {
    const Determinant x = det((d + 1) % 8, rsn * 3, d, rsn);
    log.record({x, holder_bit(ProcessId{d})});
    model[{ProcessId{d}, rsn}] = x;
  };
  for (const auto& [d, rsn] : keys) learn(d, rsn);
  for (std::uint32_t d = 0; d < 8; ++d) {
    const Rsn upto = 200 + 10 * d;
    EXPECT_EQ(log.prune_dest(ProcessId{d}, upto), upto);
    std::erase_if(model, [&](const auto& kv) {
      return kv.first.first == ProcessId{d} && kv.first.second <= upto;
    });
  }
  for (std::uint32_t d = 0; d < 8; ++d) {
    for (Rsn rsn = 601; rsn <= 700; ++rsn) learn(d, rsn);
  }
  for (Rsn rsn = 50; rsn >= 1; --rsn) learn(0, rsn);  // pruned, then re-learned

  ASSERT_EQ(log.size(), model.size());
  std::vector<HeldDeterminant> expected;
  for (const auto& [key, x] : model) {
    const auto* h = log.find(key.first, key.second);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->det, x);
    expected.push_back({x, holder_bit(key.first)});
  }
  EXPECT_FALSE(log.contains(ProcessId{3}, 230));
  EXPECT_FALSE(log.contains(ProcessId{3}, 701));
  EXPECT_FALSE(log.contains(ProcessId{9}, 1));
  EXPECT_EQ(log.slice_for(~HolderMask{0}), expected);

  const auto replay = log.replay_schedule(ProcessId{0}, 40);
  ASSERT_EQ(replay.size(), 10u + 400u + 100u);
  EXPECT_EQ(replay.front().rsn, 41u);
  EXPECT_EQ(replay[10].rsn, 201u);
  EXPECT_EQ(replay.back().rsn, 700u);

  BufWriter w;
  log.encode(w);
  BufReader r(w.view());
  EXPECT_EQ(DeterminantLog::decode(r).slice_for(~HolderMask{0}), expected);
}

// Seeded reference-model property test: random record / add_holders /
// forget_holder / prune_dest / set_propagation_threshold sequences over a
// plain map, checking after every step that the incremental indices answer
// exactly what a scan of the model answers.
class DetLogModel {
 public:
  void record(const HeldDeterminant& h) {
    auto [it, inserted] = by_key_.try_emplace({h.det.dest, h.det.rsn}, h);
    if (!inserted) it->second.holders |= h.holders;
  }
  void add_holders(const Determinant& d, HolderMask extra) {
    const auto it = by_key_.find({d.dest, d.rsn});
    if (it != by_key_.end() && it->second.det == d) it->second.holders |= extra;
  }
  void forget_holder(ProcessId peer, Rsn kept_rsn) {
    for (auto& [key, h] : by_key_) {
      if (key.first != peer || key.second > kept_rsn) h.holders &= ~holder_bit(peer);
    }
  }
  void prune_dest(ProcessId dest, Rsn upto) {
    std::erase_if(by_key_, [&](const auto& kv) {
      return kv.first.first == dest && kv.first.second <= upto;
    });
  }

  /// The model's entries satisfying `keep`, in (dest, rsn) order.
  template <typename Pred>
  [[nodiscard]] std::vector<HeldDeterminant> where(Pred keep) const {
    std::vector<HeldDeterminant> out;
    for (const auto& [key, h] : by_key_) {
      if (keep(h)) out.push_back(h);
    }
    return out;
  }
  [[nodiscard]] std::size_t size() const { return by_key_.size(); }

 private:
  std::map<std::pair<ProcessId, Rsn>, HeldDeterminant> by_key_;
};

bool stable(const HeldDeterminant& h) { return (h.holders & kStableHolder) != 0; }

// Cursors lag behind mutations on purpose: piggyback_for is asked for a
// random subset of destinations after each step, some piggybacks are marked
// at once (the engine's immediate rule) and some only later or never (its
// deferred mode), pruned keys get recorded again, the log is copy-assigned
// mid-run (the make_checkpoint/load path) with both copies continuing
// against their own model, and one replica continues from decode(encode()).
TEST(DetLogProperty, IndicesMatchReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const auto n = static_cast<std::uint32_t>(rng.uniform(2, 8));
    const auto max_rsn = static_cast<Rsn>(rng.uniform(3, 12));
    struct Replica {
      DeterminantLog log;
      DetLogModel model;
      int threshold{1};
      // Piggybacks handed out but not yet marked (deferred-mark mode).
      std::vector<std::pair<ProcessId, std::vector<HeldDeterminant>>> unmarked;
    };
    std::vector<Replica> replicas(1);
    replicas[0].threshold = static_cast<int>(rng.uniform(1, n + 1));
    replicas[0].log.set_propagation_threshold(replicas[0].threshold);
    const auto fork_step = static_cast<int>(rng.uniform(50, 200));
    const auto reload_step = static_cast<int>(rng.uniform(0, 299));
    const auto pid = [&] { return ProcessId{static_cast<std::uint32_t>(rng.bounded(n))}; };
    const auto mask = [&] {
      HolderMask m;
      for (std::uint32_t p = 0; p < n; ++p) {
        if (rng.chance(0.3)) m |= holder_bit(ProcessId{p});
      }
      if (rng.chance(0.1)) m |= kStableHolder;
      return m;
    };
    // One fixed (source, ssn) per (dest, rsn), so records never conflict.
    const auto det_at = [&](ProcessId dest, Rsn rsn) {
      return Determinant{ProcessId{static_cast<std::uint32_t>((dest.value + rsn) % n)},
                         rsn * 7 + dest.value, dest, rsn};
    };
    const auto expected_for = [](const std::vector<HeldDeterminant>& active, ProcessId to) {
      std::vector<HeldDeterminant> out;
      for (const auto& h : active) {
        if (!holds(h.holders, to)) out.push_back(h);
      }
      return out;
    };
    const auto model_active = [](const Replica& r) {
      return r.model.where([&](const HeldDeterminant& h) {
        return !stable(h) && holder_count(h.holders) < r.threshold;
      });
    };
    const auto mark = [](Replica& r, ProcessId to, const std::vector<HeldDeterminant>& dets) {
      for (const auto& h : dets) {
        r.log.add_holders(h.det, holder_bit(to));
        r.model.add_holders(h.det, holder_bit(to));
      }
    };
    for (int step = 0; step < 300; ++step) {
      if (step == fork_step) {
        replicas.emplace_back();
        replicas.back() = replicas.front();
      }
      for (std::size_t ri = 0; ri < replicas.size(); ++ri) {
        Replica& r = replicas[ri];
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step << " replica "
                                          << ri);
        if (ri == 0 && step == reload_step) {
          BufWriter w;
          r.log.encode(w);
          BufReader rd(w.view());
          r.log = DeterminantLog::decode(rd);
          r.log.set_propagation_threshold(r.threshold);
        }
        const ProcessId p = pid();
        const auto rsn = static_cast<Rsn>(rng.uniform(1, static_cast<std::int64_t>(max_rsn)));
        switch (rng.bounded(13)) {
          case 0:
          case 1:
          case 2:
          case 3: {
            const HeldDeterminant h{det_at(p, rsn), mask()};
            r.log.record(h);
            r.model.record(h);
            break;
          }
          case 4:
          case 5: {
            const HolderMask extra = mask();
            r.log.add_holders(det_at(p, rsn), extra);
            r.model.add_holders(det_at(p, rsn), extra);
            break;
          }
          case 6:
            r.log.forget_holder(p, rsn);
            r.model.forget_holder(p, rsn);
            break;
          case 7: {
            r.log.prune_dest(p, rsn / 2);
            r.model.prune_dest(p, rsn / 2);
            if (rsn / 2 >= 1 && rng.chance(0.5)) {
              // Record a key the prune just removed.
              const auto again =
                  static_cast<Rsn>(rng.uniform(1, static_cast<std::int64_t>(rsn / 2)));
              const HeldDeterminant h{det_at(p, again), mask()};
              r.log.record(h);
              r.model.record(h);
            }
            break;
          }
          case 8: {
            r.threshold = static_cast<int>(rng.uniform(1, n + 1));
            r.log.set_propagation_threshold(r.threshold);
            break;
          }
          case 9:
          case 10:
          case 11: {
            // A send: piggyback, then mark now, defer the mark, or never
            // mark (the frame was lost with its sender's volatile state).
            const ProcessId to = pid();
            const auto got = r.log.piggyback_for(to);
            ASSERT_EQ(got, expected_for(model_active(r), to)) << "send to p" << to.value;
            const auto how = rng.bounded(3);
            if (how == 0) mark(r, to, got);
            if (how == 1) r.unmarked.emplace_back(to, got);
            break;
          }
          default:
            if (!r.unmarked.empty()) {
              // Confirm a deferred mark, oldest first.
              mark(r, r.unmarked.front().first, r.unmarked.front().second);
              r.unmarked.erase(r.unmarked.begin());
            }
            break;
        }
        ASSERT_EQ(r.log.size(), r.model.size());
        const auto active = r.log.active();
        ASSERT_EQ(active, model_active(r));
        ASSERT_EQ(r.log.active_size(), active.size());
        for (std::uint32_t to = 0; to < n; ++to) {
          if (!rng.chance(0.4)) continue;  // leave this cursor behind
          ASSERT_EQ(r.log.piggyback_for(ProcessId{to}), expected_for(active, ProcessId{to}))
              << "to p" << to;
        }
        if (r.threshold == static_cast<int>(n) + 1) {
          ASSERT_EQ(active, r.model.where([](const HeldDeterminant& h) { return !stable(h); }));
        }
      }
    }
    ASSERT_EQ(replicas.size(), 2u);
  }
}

TEST(SendLogTest, RecordAndFind) {
  SendLog log;
  log.record(ProcessId{1}, 1, to_bytes("a"));
  log.record(ProcessId{1}, 2, to_bytes("b"));
  log.record(ProcessId{2}, 1, to_bytes("c"));
  ASSERT_NE(log.find(ProcessId{1}, 2), nullptr);
  EXPECT_EQ(to_text(*log.find(ProcessId{1}, 2)), "b");
  EXPECT_EQ(log.find(ProcessId{1}, 3), nullptr);
  EXPECT_EQ(log.find(ProcessId{9}, 1), nullptr);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.bytes(), 3u);
}

TEST(SendLogTest, EntriesAfterWatermark) {
  SendLog log;
  for (Ssn s = 1; s <= 5; ++s) log.record(ProcessId{1}, s, Bytes(1));
  const auto entries = log.entries_after(ProcessId{1}, 3);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].ssn, 4u);
  EXPECT_EQ(entries[1].ssn, 5u);
  EXPECT_TRUE(log.entries_after(ProcessId{1}, 5).empty());
  EXPECT_TRUE(log.entries_after(ProcessId{2}, 0).empty());
}

TEST(SendLogTest, PruneDropsCoveredEntries) {
  SendLog log;
  for (Ssn s = 1; s <= 10; ++s) log.record(ProcessId{1}, s, Bytes(2));
  EXPECT_EQ(log.prune(ProcessId{1}, 6), 6u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.bytes(), 8u);
  EXPECT_EQ(log.find(ProcessId{1}, 6), nullptr);
  ASSERT_NE(log.find(ProcessId{1}, 7), nullptr);
  EXPECT_EQ(log.prune(ProcessId{1}, 100), 4u);
  EXPECT_EQ(log.prune(ProcessId{1}, 100), 0u);
}

TEST(SendLogTest, SerdeRoundTrip) {
  SendLog log;
  log.record(ProcessId{1}, 3, to_bytes("x"));
  log.record(ProcessId{2}, 1, to_bytes("yy"));
  BufWriter w;
  log.encode(w);
  BufReader r(w.view());
  const SendLog copy = SendLog::decode(r);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(to_text(*copy.find(ProcessId{2}, 1)), "yy");
}

TEST(SendLogTest, NonMonotonicSsnAborts) {
  SendLog log;
  log.record(ProcessId{1}, 5, Bytes(1));
  EXPECT_DEATH(log.record(ProcessId{1}, 5, Bytes(1)), "strictly increasing");
}

TEST(SendLogTest, ClearResets) {
  SendLog log;
  log.record(ProcessId{1}, 1, Bytes(4));
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.bytes(), 0u);
  EXPECT_EQ(log.find(ProcessId{1}, 1), nullptr);
}

}  // namespace
}  // namespace rr::fbl
