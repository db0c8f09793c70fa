#include "fpna/comm/schedule.hpp"

#include <stdexcept>
#include <string>

namespace fpna::comm {

const char* to_string(WirePath path) noexcept {
  switch (path) {
    case WirePath::kAllgather: return "allgather";
    case WirePath::kRing: return "ring";
    case WirePath::kButterfly: return "butterfly";
  }
  return "?";
}

WirePath parse_wire_path(std::string_view name) {
  if (name == "allgather") return WirePath::kAllgather;
  if (name == "ring") return WirePath::kRing;
  if (name == "butterfly") return WirePath::kButterfly;
  throw std::invalid_argument("parse_wire_path: unknown wire path '" +
                              std::string(name) +
                              "' (valid: allgather, ring, butterfly)");
}

CollectiveSchedule CollectiveSchedule::ring(std::size_t ranks,
                                            std::size_t elements) {
  if (ranks == 0) {
    throw std::invalid_argument("CollectiveSchedule::ring: zero ranks");
  }
  CollectiveSchedule s;
  s.path_ = WirePath::kRing;
  s.ranks_ = ranks;
  s.elements_ = elements;

  const auto chunk = [&](std::size_t c) {
    const auto [begin, end] = collective::ring_chunk(elements, ranks, c);
    return ShardRange{begin, end};
  };
  s.shards_.resize(ranks);
  for (std::size_t r = 0; r < ranks; ++r) s.shards_[r] = chunk(r);

  // Reduce-scatter: chunk c accumulates along ranks (c+1)%P, (c+2)%P,
  // ..., c%P (the MPICH ring order). Each hop sends the running
  // partial; the receiver folds its own value on the right, so every
  // combine is (incoming chain) + (local contribution).
  for (std::size_t step = 0; step + 1 < ranks; ++step) {
    for (std::size_t c = 0; c < ranks; ++c) {
      const ShardRange range = chunk(c);
      if (range.empty()) continue;
      s.messages_.push_back(Message{
          .step = step,
          .sender = (c + 1 + step) % ranks,
          .receiver = (c + 2 + step) % ranks,
          .range = range,
          .reduce = true,
          .incoming_left = true,
      });
    }
  }
  s.reduce_count_ = s.messages_.size();

  // Allgather: at step g, rank r forwards the chunk it completed at step
  // g-1 (its own at g == 0) to the next rank; after P-1 steps every rank
  // holds every chunk.
  for (std::size_t g = 0; g + 1 < ranks; ++g) {
    for (std::size_t r = 0; r < ranks; ++r) {
      const std::size_t c = (r + ranks - g % ranks) % ranks;
      const ShardRange range = chunk(c);
      if (range.empty()) continue;
      s.messages_.push_back(Message{
          .step = ranks - 1 + g,
          .sender = r,
          .receiver = (r + 1) % ranks,
          .range = range,
          .reduce = false,
          .incoming_left = false,
      });
    }
  }
  return s;
}

CollectiveSchedule CollectiveSchedule::butterfly(std::size_t ranks,
                                                 std::size_t elements) {
  if (ranks == 0) {
    throw std::invalid_argument("CollectiveSchedule::butterfly: zero ranks");
  }
  CollectiveSchedule s;
  s.path_ = WirePath::kButterfly;
  s.ranks_ = ranks;
  s.elements_ = elements;

  std::size_t active = 1;
  while (active * 2 <= ranks) active *= 2;

  std::size_t step = 0;
  // Non-power-of-two pre-fold: extras send their whole buffer to their
  // partner, which folds it on the right (buffers[r-active] + buffers[r],
  // the MPICH recursive-doubling pre-step).
  if (ranks > active && elements > 0) {
    for (std::size_t r = active; r < ranks; ++r) {
      s.messages_.push_back(Message{
          .step = step,
          .sender = r,
          .receiver = r - active,
          .range = ShardRange{0, elements},
          .reduce = true,
          .incoming_left = false,
      });
    }
    ++step;
  }

  // Recursive halving in *doubling stage order* (distance 1, 2, 4, ...):
  // this pairs the same ranks at the same stage as the whole-buffer
  // butterfly, and with lower-rank partials always on the left of the
  // combine, every element's association tree is that of the
  // whole-buffer recursive doubling. Each rank keeps the half
  // selected by the stage's bit of its id (0 -> lower half), so its final
  // shard is the nested-halving cell addressed by its bits LSB-first.
  std::vector<ShardRange> cur(active, ShardRange{0, elements});
  for (std::size_t stage = 1; stage < active; stage *= 2) {
    for (std::size_t r = 0; r < active; ++r) {
      const std::size_t partner = r ^ stage;
      if (partner < r) continue;
      const ShardRange range = cur[r];  // == cur[partner]
      const std::size_t left_size = (range.size() + 1) / 2;
      const ShardRange left{range.begin, range.begin + left_size};
      const ShardRange right{range.begin + left_size, range.end};
      if (!right.empty()) {
        s.messages_.push_back(Message{
            .step = step,
            .sender = r,
            .receiver = partner,
            .range = right,
            .reduce = true,
            .incoming_left = true,  // incoming is the lower rank's partial
        });
      }
      if (!left.empty()) {
        s.messages_.push_back(Message{
            .step = step,
            .sender = partner,
            .receiver = r,
            .range = left,
            .reduce = true,
            .incoming_left = false,  // incoming is the higher rank's
        });
      }
      cur[r] = left;
      cur[partner] = right;
    }
    ++step;
  }
  s.reduce_count_ = s.messages_.size();

  s.shards_.assign(ranks, ShardRange{0, 0});
  for (std::size_t r = 0; r < active; ++r) s.shards_[r] = cur[r];

  // Allgather: undo the halving finest-first. At reverse stage `stage`
  // each pair exchanges its currently complete range; the union is the
  // (contiguous) range the pair shared before that reduce stage.
  std::vector<ShardRange> complete = cur;
  for (std::size_t stage = active / 2; stage >= 1; stage /= 2) {
    for (std::size_t r = 0; r < active; ++r) {
      const std::size_t partner = r ^ stage;
      if (partner < r) continue;
      if (!complete[r].empty()) {
        s.messages_.push_back(Message{
            .step = step,
            .sender = r,
            .receiver = partner,
            .range = complete[r],
            .reduce = false,
            .incoming_left = false,
        });
      }
      if (!complete[partner].empty()) {
        s.messages_.push_back(Message{
            .step = step,
            .sender = partner,
            .receiver = r,
            .range = complete[partner],
            .reduce = false,
            .incoming_left = false,
        });
      }
      const ShardRange merged{
          std::min(complete[r].begin, complete[partner].begin),
          std::max(complete[r].end, complete[partner].end)};
      complete[r] = merged;
      complete[partner] = merged;
    }
    ++step;
    if (stage == 1) break;
  }
  // Finished ranks hand the full buffer back to the pre-folded extras.
  if (ranks > active && elements > 0) {
    for (std::size_t r = active; r < ranks; ++r) {
      s.messages_.push_back(Message{
          .step = step,
          .sender = r - active,
          .receiver = r,
          .range = ShardRange{0, elements},
          .reduce = false,
          .incoming_left = false,
      });
    }
  }
  return s;
}

CollectiveSchedule CollectiveSchedule::for_algorithm(
    collective::Algorithm algorithm, WirePath wire, std::size_t ranks,
    std::size_t elements) {
  switch (algorithm) {
    case collective::Algorithm::kRing:
      return ring(ranks, elements);
    case collective::Algorithm::kRecursiveDoubling:
      return butterfly(ranks, elements);
    case collective::Algorithm::kReproducible:
      // Order-invariant: the wire choice moves traffic, never bits.
      return wire == WirePath::kButterfly ? butterfly(ranks, elements)
                                          : ring(ranks, elements);
    case collective::Algorithm::kArrivalTree:
      break;
  }
  throw std::invalid_argument(
      "CollectiveSchedule::for_algorithm: no wire schedule for '" +
      std::string(collective::to_string(algorithm)) +
      "' (arrival-order combining has no fixed plan; it runs on the "
      "allgather backend)");
}

std::size_t CollectiveSchedule::elements_sent(
    std::size_t rank) const noexcept {
  std::size_t total = 0;
  for (const Message& m : messages_) {
    if (m.sender == rank) total += m.range.size();
  }
  return total;
}

// ------------------------------------------------------------- traffic --

TrafficLedger::TrafficLedger(std::size_t ranks, obs::Metrics* metrics) {
  if (metrics == nullptr) {
    owned_ = std::make_unique<obs::Metrics>();
    metrics = owned_.get();
  }
  per_rank_.reserve(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    const std::string prefix = "comm.traffic.rank" + std::to_string(r);
    per_rank_.push_back({&metrics->counter(prefix + ".bytes_sent"),
                         &metrics->counter(prefix + ".bytes_received"),
                         &metrics->counter(prefix + ".messages")});
  }
}

void TrafficLedger::record_exchange(std::size_t rank,
                                    std::uint64_t bytes_sent,
                                    std::uint64_t bytes_received,
                                    std::uint64_t messages) {
  RankCounters& c = per_rank_.at(rank);
  c.bytes_sent->add(bytes_sent);
  c.bytes_received->add(bytes_received);
  c.messages->add(messages);
}

Traffic TrafficLedger::of_rank(std::size_t rank) const {
  const RankCounters& c = per_rank_.at(rank);
  return {c.bytes_sent->value(), c.bytes_received->value(),
          c.messages->value()};
}

Traffic TrafficLedger::total() const {
  Traffic sum;
  for (const RankCounters& c : per_rank_) {
    sum.bytes_sent += c.bytes_sent->value();
    sum.bytes_received += c.bytes_received->value();
    sum.messages += c.messages->value();
  }
  return sum;
}

void TrafficLedger::reset() {
  for (RankCounters& c : per_rank_) {
    c.bytes_sent->reset();
    c.bytes_received->reset();
    c.messages->reset();
  }
}

}  // namespace fpna::comm
