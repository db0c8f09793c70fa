#include "fpna/comm/process_group.hpp"

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "fpna/fp/fold.hpp"
#include "fpna/fp/superaccumulator.hpp"
#include "fpna/obs/recorder.hpp"

#ifdef FPNA_HAVE_MPI
#include <mpi.h>
#endif

namespace fpna::comm {

template <typename T>
std::vector<T> exact_elementwise_allreduce(
    const collective::RankDataT<T>& contributions,
    const fp::ReductionSpec& spec) {
  collective::validate(contributions);
  if (!fp::traits_of(spec).exact_merge) {
    throw std::invalid_argument(
        std::string("reproducible allreduce: accumulator '") +
        fp::to_string(spec.algorithm) +
        "' has no exact merge; choose superaccumulator or binned");
  }
  // Element i's stream is rank 0's value, then rank 1's, ...
  std::vector<const T*> runs;
  for (const auto& rank : contributions) runs.push_back(rank.data());
  std::vector<T> result(contributions.front().size());
  fp::Fold<T>::of(spec).sum_each(runs, result.size(), result.data());
  return result;
}

template std::vector<double> exact_elementwise_allreduce<double>(
    const collective::RankData&, const fp::ReductionSpec&);
template std::vector<float> exact_elementwise_allreduce<float>(
    const collective::RankDataF&, const fp::ReductionSpec&);

namespace {

/// Resolves the reproducible wire spec: only the superaccumulator's exact
/// state has a bounded serialized form, so only it may carry a
/// schedule-based exchange (binned's exact state is its whole input
/// buffer). Returns the spec to visit with.
fp::ReductionSpec wire_reproducible_spec(const core::EvalContext& ctx) {
  const fp::ReductionSpec spec =
      ctx.accumulator.value_or(fp::AlgorithmId::kSuperaccumulator);
  if (spec.algorithm != fp::AlgorithmId::kSuperaccumulator) {
    const std::string name = fp::to_string(spec.algorithm);
    throw std::invalid_argument(
        fp::traits_of(spec).exact_merge
            ? "reproducible wire exchange: only the superaccumulator's "
              "exact state has a bounded serialized form; '" + name +
                  "' cannot travel a ring/butterfly schedule (use the "
                  "allgather wire)"
            : "reproducible allreduce: accumulator '" + name +
                  "' has no exact merge; choose superaccumulator or binned");
  }
  return spec;
}

/// A transport's 8-byte-aligned payload scratch of `bytes` bytes,
/// allocated uninitialised (the sender overwrites every byte).
struct Scratch {
  explicit Scratch(std::size_t bytes)
      : words(std::make_unique_for_overwrite<std::uint64_t[]>((bytes + 7) /
                                                               8)),
        view(reinterpret_cast<std::byte*>(words.get()), bytes) {}
  std::unique_ptr<std::uint64_t[]> words;
  std::span<std::byte> view;
};

/// Plays all P ranks: each message is packed into a scratch buffer and
/// delivered straight from it, in message order. The scratch lives for
/// one message, so concurrent collectives on bucket-overlap pool threads
/// share nothing.
class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(std::size_t ranks) : ranks_(ranks) {}

  std::size_t size() const noexcept override { return ranks_; }
  std::size_t first_rank() const noexcept override { return 0; }
  std::size_t ranks_played() const noexcept override { return ranks_; }
  const char* name() const noexcept override { return "sim"; }
  bool supports_concurrent_calls() const noexcept override { return true; }

  void step(std::span<const Message> messages, std::size_t element_bytes,
            const Pack& pack, const Deliver& deliver) override {
    for (const Message& msg : messages) {
      const Scratch payload(msg.range.size() * element_bytes);
      pack(msg, payload.view);
      deliver(msg, payload.view);
    }
  }

  std::vector<std::byte> gather(std::span<const std::byte> played,
                                std::size_t) override {
    return {played.begin(), played.end()};
  }

 private:
  std::size_t ranks_;
};

// ---------------------------------------------------- the interpreter --

bool plays(const Transport& transport, std::size_t rank) {
  return rank >= transport.first_rank() &&
         rank - transport.first_rank() < transport.ranks_played();
}

template <typename T>
void check_contributions(const Transport& transport,
                         const collective::RankDataT<T>& contributions,
                         const char* op) {
  if (contributions.size() != transport.ranks_played()) {
    throw std::invalid_argument(
        std::string("ProcessGroup::") + op + ": pass one contribution per " +
        "rank this process plays (" +
        std::to_string(transport.ranks_played()) + ")");
  }
  collective::validate(contributions);
}

/// The step interpreter: walks messages [begin, end) of `schedule` one
/// step at a time through the transport and books each message's traffic
/// on the ranks this process plays (nothing when `ledger` is null).
void run_messages(Transport& transport, TrafficLedger* ledger,
                  const CollectiveSchedule& schedule, std::size_t begin,
                  std::size_t end, std::size_t element_bytes,
                  const Transport::Pack& pack,
                  const Transport::Deliver& deliver) {
  const std::span<const Message> messages(schedule.messages());
  while (begin < end) {
    std::size_t step_end = begin;
    while (step_end < end &&
           messages[step_end].step == messages[begin].step) {
      ++step_end;
    }
    const auto step = messages.subspan(begin, step_end - begin);
    transport.step(step, element_bytes, pack, deliver);
    begin = step_end;
    if (ledger == nullptr) continue;
    for (const Message& msg : step) {
      const std::uint64_t bytes = msg.range.size() * element_bytes;
      if (plays(transport, msg.sender)) {
        ledger->record_exchange(msg.sender, bytes, 0, 1);
      }
      if (plays(transport, msg.receiver)) {
        ledger->record_exchange(msg.receiver, 0, bytes, 0);
      }
    }
  }
}

/// Copies each played rank's shard out of its per-rank state into a
/// zeroed full-length buffer.
template <typename T, typename Final>
std::vector<T> owned_shards(const Transport& transport,
                            const CollectiveSchedule& schedule,
                            Final&& final_value) {
  std::vector<T> result(schedule.elements(), T{0});
  for (std::size_t k = 0; k < transport.ranks_played(); ++k) {
    const ShardRange shard = schedule.shards()[transport.first_rank() + k];
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
      result[i] = final_value(k, i);
    }
  }
  return result;
}

/// Emits a received message's comm.wire record, fingerprinting `bits`.
/// (step, receiver) is a unique wire coordinate within the reduce phase
/// of any schedule, and records are emitted on the calling thread in
/// message order, so provenance is deterministic by construction.
template <typename V>
void record_wire_step(obs::Recorder* recorder, const Message& msg,
                      const std::string& label, std::span<const V> bits) {
  if (recorder == nullptr) return;
  obs::Fingerprint print;
  print.feed(bits);
  recorder->provenance({"comm.wire", "wire_step",
                        static_cast<std::int64_t>(msg.step),
                        static_cast<std::int64_t>(msg.receiver), label,
                        print.value(), msg.range.size()});
}

/// The value codec: rounded adds in each message's operand order, on
/// the played ranks' `buffers`. Provenance fingerprints the receiver's
/// freshly combined range.
template <typename T>
std::vector<T> value_reduce_scatter(Transport& transport,
                                    TrafficLedger* ledger,
                                    const CollectiveSchedule& schedule,
                                    collective::RankDataT<T> buffers,
                                    obs::Recorder* recorder) {
  const std::string label = to_string(schedule.path());
  const std::size_t first = transport.first_rank();
  run_messages(
      transport, ledger, schedule, 0, schedule.reduce_message_count(),
      sizeof(T),
      [&](const Message& msg, std::span<std::byte> out) {
        std::memcpy(out.data(),
                    buffers[msg.sender - first].data() + msg.range.begin,
                    out.size());
      },
      [&](const Message& msg, std::span<const std::byte> in) {
        T* dst = buffers[msg.receiver - first].data();
        for (std::size_t i = msg.range.begin, k = 0; i < msg.range.end;
             ++i, k += sizeof(T)) {
          T incoming;
          std::memcpy(&incoming, in.data() + k, sizeof(T));
          dst[i] = msg.incoming_left ? static_cast<T>(incoming + dst[i])
                                     : static_cast<T>(dst[i] + incoming);
        }
        record_wire_step(recorder, msg, label,
                         std::span<const T>(dst + msg.range.begin,
                                            msg.range.size()));
      });
  return owned_shards<T>(transport, schedule, [&](std::size_t k,
                                                  std::size_t i) {
    return buffers[k][i];
  });
}

constexpr std::size_t kStateWords = fp::Superaccumulator::kWireWords;

/// A payload as the wire words the state codec writes (payloads are
/// 8-byte aligned).
template <typename Byte>
auto as_words(std::span<Byte> payload) {
  using Word = std::conditional_t<std::is_const_v<Byte>, const std::uint64_t,
                                  std::uint64_t>;
  return std::span<Word>(reinterpret_cast<Word*>(payload.data()),
                         payload.size() / sizeof(Word));
}

/// The state codec: messages carry serialized superaccumulator states,
/// each hop merges exactly and only the shard owner rounds, so the bits
/// are those of the allgather wire's exact path on any schedule. The
/// algorithm is pinned (wire_reproducible_spec), so only the spec's dtype
/// axes apply. Provenance fingerprints each message's words.
template <typename T>
std::vector<T> state_reduce_scatter(Transport& transport,
                                    TrafficLedger* ledger,
                                    const CollectiveSchedule& schedule,
                                    const collective::RankDataT<T>& data,
                                    const fp::ReductionSpec& spec,
                                    obs::Recorder* recorder) {
  const std::string label =
      recorder != nullptr ? fp::to_string(spec) : std::string();
  const std::size_t first = transport.first_rank();
  const std::size_t n = schedule.elements();
  std::vector<fp::Superaccumulator> states(data.size() * n);
  std::vector<T> addends(n);
  for (std::size_t k = 0; k < data.size(); ++k) {
    // Each addend as the accumulate dtype sees it.
    addends = data[k];
    fp::round_to<T>(spec.storage, addends);
    fp::round_to<T>(spec.accumulate, addends);
    for (std::size_t i = 0; i < n; ++i) {
      states[k * n + i].add(static_cast<double>(addends[i]));
    }
  }
  run_messages(
      transport, ledger, schedule, 0, schedule.reduce_message_count(),
      kStateWords * sizeof(std::uint64_t),
      [&](const Message& msg, std::span<std::byte> out) {
        const auto words = as_words(out);
        const fp::Superaccumulator* src =
            &states[(msg.sender - first) * n + msg.range.begin];
        for (std::size_t k = 0; k < msg.range.size(); ++k) {
          src[k].serialize(words.subspan(k * kStateWords, kStateWords));
        }
      },
      [&](const Message& msg, std::span<const std::byte> in) {
        const auto words = as_words(in);
        fp::Superaccumulator* dst =
            &states[(msg.receiver - first) * n + msg.range.begin];
        for (std::size_t k = 0; k < msg.range.size(); ++k) {
          dst[k].add_wire(words.subspan(k * kStateWords, kStateWords));
        }
        record_wire_step(recorder, msg, label, words);
      });
  const std::vector<double> exact = owned_shards<double>(
      transport, schedule,
      [&](std::size_t k, std::size_t i) { return states[k * n + i].round(); });
  std::vector<T> result(exact.begin(), exact.end());
  fp::round_to<T>(spec.accumulate, result);
  return result;
}

/// A schedule wire's allreduce: the reduce phase through the codec
/// `algorithm` selects, then the copy phase. On the in-process transport
/// every shard is already in place after the reduce phase, so each copy
/// lands on itself.
template <typename T>
std::vector<T> schedule_allreduce(Transport& transport, TrafficLedger& ledger,
                                  const collective::RankDataT<T>& data,
                                  collective::Algorithm algorithm,
                                  WirePath wire,
                                  const core::EvalContext& ctx) {
  const auto schedule = CollectiveSchedule::for_algorithm(
      algorithm, wire, transport.size(), data.front().size());
  const bool exact = algorithm == collective::Algorithm::kReproducible;
  std::vector<T> buffer;
  {
    obs::Span span(ctx.recorder, exact ? "comm.reduce_scatter.state"
                                       : "comm.reduce_scatter.value");
    span.arg("wire", to_string(schedule.path()));
    span.arg("elements", static_cast<std::uint64_t>(schedule.elements()));
    buffer = exact ? state_reduce_scatter(transport, &ledger, schedule, data,
                                          wire_reproducible_spec(ctx),
                                          ctx.recorder)
                   : value_reduce_scatter(transport, &ledger, schedule, data,
                                          ctx.recorder);
  }
  run_messages(
      transport, &ledger, schedule, schedule.reduce_message_count(),
      schedule.messages().size(), sizeof(T),
      [&](const Message& msg, std::span<std::byte> out) {
        std::memcpy(out.data(), buffer.data() + msg.range.begin, out.size());
      },
      [&](const Message& msg, std::span<const std::byte> in) {
        std::memcpy(buffer.data() + msg.range.begin, in.data(), in.size());
      });
  return buffer;
}

/// The allgather wire's combine, run on all P rank buffers by every
/// participant, so all compute identical bits from identical inputs. The
/// rounded algorithms replay their schedule's reduce phase on an
/// in-process transport: one implementation of each association, and no
/// traffic, span or comm.wire record beyond the wire's own.
template <typename T>
std::vector<T> combine(const collective::RankDataT<T>& ranks,
                       collective::Algorithm algorithm,
                       const core::EvalContext& ctx,
                       std::size_t block_elements) {
  switch (algorithm) {
    case collective::Algorithm::kRing:
    case collective::Algorithm::kRecursiveDoubling: {
      InProcessTransport local(ranks.size());
      const auto schedule = CollectiveSchedule::for_algorithm(
          algorithm, WirePath::kAllgather, ranks.size(),
          ranks.front().size());
      return value_reduce_scatter(local, nullptr, schedule, ranks, nullptr);
    }
    case collective::Algorithm::kReproducible:
      return exact_elementwise_allreduce(
          ranks, ctx.accumulator.value_or(fp::AlgorithmId::kSuperaccumulator));
    case collective::Algorithm::kArrivalTree:
      if (ctx.run == nullptr) {
        throw std::invalid_argument(
            "allreduce: arrival-tree needs EvalContext.run");
      }
      return collective::allreduce_arrival_tree(ranks, *ctx.run,
                                                block_elements);
  }
  throw std::invalid_argument("allreduce: unknown algorithm");
}

/// Every rank's buffer for the allgather wire, through the transport.
template <typename T>
collective::RankDataT<T> gather_ranks(
    Transport& transport, const collective::RankDataT<T>& contributions) {
  std::vector<T> played;
  for (const auto& rank : contributions) {
    played.insert(played.end(), rank.begin(), rank.end());
  }
  const std::vector<std::byte> world =
      transport.gather(std::as_bytes(std::span(played)), sizeof(T));
  const std::size_t n = contributions.front().size();
  collective::RankDataT<T> ranks(transport.size(), std::vector<T>(n));
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    std::memcpy(ranks[r].data(), world.data() + r * n * sizeof(T),
                n * sizeof(T));
  }
  return ranks;
}

template <typename T>
std::vector<T> allreduce_impl(Transport& transport, TrafficLedger& ledger,
                              WirePath wire,
                              const collective::RankDataT<T>& contributions,
                              collective::Algorithm algorithm,
                              const core::EvalContext& ctx,
                              std::size_t block_elements) {
  check_contributions(transport, contributions, "allreduce");
  const std::size_t ranks = transport.size();
  const std::size_t n = contributions.front().size();
  // Deterministic algorithms travel a schedule wire; arrival-tree always
  // combines on the allgather wire (its arrival-order draw has no plan).
  if (wire != WirePath::kAllgather &&
      algorithm != collective::Algorithm::kArrivalTree) {
    return schedule_allreduce(transport, ledger, contributions, algorithm,
                              wire, ctx);
  }
  const bool plays_all = transport.ranks_played() == ranks;
  const collective::RankDataT<T> gathered =
      plays_all ? collective::RankDataT<T>{}
                : gather_ranks(transport, contributions);
  // Modelled traffic of the allgather wire: every rank ships its full
  // buffer to the other P-1 ranks and receives theirs - the O(n*P)
  // baseline the schedules beat.
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(ranks - 1) * n * sizeof(T);
  for (std::size_t k = 0; k < transport.ranks_played(); ++k) {
    ledger.record_exchange(transport.first_rank() + k, bytes, bytes,
                           ranks - 1);
  }
  return combine(plays_all ? contributions : gathered, algorithm, ctx,
                 block_elements);
}

}  // namespace

ProcessGroup::ProcessGroup(std::unique_ptr<Transport> transport,
                           WirePath wire)
    : transport_(std::move(transport)),
      wire_(wire),
      ledger_(transport_ ? transport_->size() : 0) {
  if (!transport_ || transport_->size() == 0) {
    throw std::invalid_argument("ProcessGroup: no transport or zero ranks");
  }
}

std::vector<double> ProcessGroup::allreduce(
    const collective::RankData& contributions,
    collective::Algorithm algorithm, const core::EvalContext& ctx,
    std::size_t block_elements) {
  return allreduce_impl(*transport_, ledger_, wire_, contributions, algorithm,
                        ctx, block_elements);
}

std::vector<float> ProcessGroup::allreduce(
    const collective::RankDataF& contributions,
    collective::Algorithm algorithm, const core::EvalContext& ctx,
    std::size_t block_elements) {
  return allreduce_impl(*transport_, ledger_, wire_, contributions, algorithm,
                        ctx, block_elements);
}

double distributed_sum(std::span<const double> data, std::size_t ranks,
                       collective::Algorithm algorithm,
                       const core::EvalContext& ctx) {
  if (ranks == 0) throw std::invalid_argument("distributed_sum: zero ranks");
  if (algorithm == collective::Algorithm::kReproducible) {
    return fp::reduce<double>(fp::AlgorithmId::kSuperaccumulator, data);
  }
  collective::RankData partials;
  std::size_t begin = 0;
  for (const std::size_t size : collective::shard_sizes(data.size(), ranks)) {
    partials.push_back(
        {fp::reduce(ctx.reduction_in_effect(), data.subspan(begin, size))});
    begin += size;
  }
  return combine(partials, algorithm, ctx, 1024)[0];
}

SimProcessGroup::SimProcessGroup(std::size_t ranks, WirePath wire)
    : ProcessGroup(std::make_unique<InProcessTransport>(ranks), wire) {}

std::unique_ptr<ProcessGroup> make_process_group(std::size_t ranks,
                                                 WirePath wire) {
  return std::make_unique<SimProcessGroup>(ranks, wire);
}

#ifdef FPNA_HAVE_MPI

namespace {

/// The MPI transport: plays this process's rank of MPI_COMM_WORLD. A step
/// posts its sends with MPI_Isend (tag = step), then receives in message
/// order with MPI_Recv. Every schedule has a rank send at most one
/// message per step, so (source, tag) pairs are unambiguous, and posting
/// the nonblocking sends before any receive makes the step deadlock-free.
class MpiTransport final : public Transport {
 public:
  MpiTransport() {
    int initialized = 0, size = 0, rank = 0;
    MPI_Initialized(&initialized);
    if (!initialized) {
      throw std::runtime_error(
          "MpiProcessGroup: MPI_Init must run before constructing the group");
    }
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    size_ = static_cast<std::size_t>(size);
    rank_ = static_cast<std::size_t>(rank);
  }

  std::size_t size() const noexcept override { return size_; }
  std::size_t first_rank() const noexcept override { return rank_; }
  std::size_t ranks_played() const noexcept override { return 1; }
  const char* name() const noexcept override { return "mpi"; }
  bool supports_concurrent_calls() const noexcept override { return false; }

  void step(std::span<const Message> messages, std::size_t element_bytes,
            const Pack& pack, const Deliver& deliver) override {
    const ElementType element(element_bytes);
    std::vector<Scratch> sends;  // moving a Scratch keeps its buffer
    std::vector<MPI_Request> requests;
    for (const Message& msg : messages) {
      if (msg.sender != rank_) continue;
      const Scratch& out =
          sends.emplace_back(msg.range.size() * element_bytes);
      pack(msg, out.view);
      MPI_Isend(out.view.data(), static_cast<int>(msg.range.size()),
                element.type, static_cast<int>(msg.receiver),
                static_cast<int>(msg.step), MPI_COMM_WORLD,
                &requests.emplace_back());
    }
    for (const Message& msg : messages) {
      if (msg.receiver != rank_) continue;
      const Scratch in(msg.range.size() * element_bytes);
      MPI_Recv(in.view.data(), static_cast<int>(msg.range.size()),
               element.type, static_cast<int>(msg.sender),
               static_cast<int>(msg.step), MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      deliver(msg, in.view);
    }
    MPI_Waitall(static_cast<int>(requests.size()), requests.data(),
                MPI_STATUSES_IGNORE);
  }

  std::vector<std::byte> gather(std::span<const std::byte> played,
                                std::size_t element_bytes) override {
    // One MPI_MIN over (n, -n) yields the smallest and largest length.
    long extents[2] = {static_cast<long>(played.size()),
                       -static_cast<long>(played.size())};
    MPI_Allreduce(MPI_IN_PLACE, extents, 2, MPI_LONG, MPI_MIN,
                  MPI_COMM_WORLD);
    if (extents[0] != -extents[1]) {
      throw std::invalid_argument(
          "MpiProcessGroup::allreduce: rank vector length mismatch");
    }
    const ElementType element(element_bytes);
    const int count = static_cast<int>(played.size() / element_bytes);
    std::vector<std::byte> world(size_ * played.size());
    MPI_Allgather(played.data(), count, element.type, world.data(), count,
                  element.type, MPI_COMM_WORLD);
    return world;
  }

 private:
  /// Counts travel in elements, as the schedule sizes them.
  struct ElementType {
    explicit ElementType(std::size_t bytes) {
      MPI_Type_contiguous(static_cast<int>(bytes), MPI_BYTE, &type);
      MPI_Type_commit(&type);
    }
    ElementType(const ElementType&) = delete;
    ElementType& operator=(const ElementType&) = delete;
    ~ElementType() { MPI_Type_free(&type); }
    MPI_Datatype type;
  };

  std::size_t size_ = 0;
  std::size_t rank_ = 0;
};

}  // namespace

MpiProcessGroup::MpiProcessGroup(WirePath wire)
    : ProcessGroup(std::make_unique<MpiTransport>(), wire) {}

std::unique_ptr<ProcessGroup> make_mpi_process_group(WirePath wire) {
  return std::make_unique<MpiProcessGroup>(wire);
}

#endif  // FPNA_HAVE_MPI

}  // namespace fpna::comm
