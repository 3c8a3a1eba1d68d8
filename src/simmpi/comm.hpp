// Thread-backed MPI communicator subset.
//
// Ranks are std::threads inside one process (see runtime.hpp). The message-
// passing semantics follow MPI: buffered point-to-point sends with
// (source, tag, context) matching, and collectives implemented over
// point-to-point with the classic binomial-tree / dissemination algorithms so
// that virtual-time costs accumulate the way a real MPI library's would.
//
// Every rank carries a VirtualClock; message delivery advances the receiver
// to the message arrival time, which is how blocking collectives synchronize
// virtual clocks exactly where real ranks would block.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "simmpi/clock.hpp"
#include "simmpi/rankfault.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace simmpi {

constexpr int kAnySource = -1;
constexpr int kAnyTag = -1;

class Comm;

namespace detail {

struct Message {
  int world_src = 0;
  int ctx = 0;
  int tag = 0;
  double arrive_time = 0.0;  ///< virtual time at which the payload is available
  std::vector<std::byte> data;
};

struct Mailbox {
  std::mutex m;
  std::condition_variable cv;
  std::deque<Message> q;
};

/// What a rank is blocked on, for the hang watchdog's dump.
struct WaitRecord {
  bool waiting = false;
  int src = 0, tag = 0, ctx = 0;  ///< envelope being waited for
  std::uint64_t recvs = 0;        ///< receives completed so far
};

/// One fault-tolerant agreement monitor, keyed by communicator context.
/// Point-to-point agreement trees diverge when a participant dies mid-round
/// (some peers already consumed its contribution, others fold in a failure),
/// so agreement runs through shared memory instead: a round completes when
/// every live member has arrived, and its outcome — fold, survivor set,
/// fresh context — is computed once, in one critical section, and handed to
/// every waiter identically. Virtual cost is charged as if a dissemination
/// allreduce had run. Guarded by RankFaultState::mu.
struct AgreeSlot {
  std::condition_variable cv;
  std::vector<int> members;           ///< world ranks (fixed per ctx)
  std::vector<std::uint8_t> arrived;  ///< per comm rank, this round
  std::vector<double> times;          ///< arrival clocks, this round
  std::int64_t fold = 0;              ///< running min of arrived values
  int round = 0;
  bool done = false;  ///< round finalized, waiters may collect
  int collected = 0;  ///< waiters that consumed the outcome
  // Finalized outcome (valid while done):
  std::int64_t result = 0;
  bool any_dead = false;
  std::vector<int> alive;  ///< comm-relative ranks
  double result_time = 0.0;
  int live_ctx = 0;
};

/// Rank-fault injection state (see rankfault.hpp). Armed once, before the
/// rank threads start; `dead` flags are the only fields peers read hot.
struct RankFaultState {
  bool armed = false;
  RankFaultPolicy policy;
  std::unique_ptr<std::atomic<bool>[]> dead;  ///< indexed by world rank
  std::vector<std::uint64_t> ops;    ///< per-rank op counter (owner thread)
  std::vector<std::uint64_t> sends;  ///< per-rank send counter (owner thread)
  std::mutex mu;  ///< guards counters and agree slots
  RankFaultCounters counters;
  std::map<int, AgreeSlot> slots;  ///< agreement monitors, keyed by ctx
};

/// State shared by all ranks of a Runtime instance.
struct SharedState {
  explicit SharedState(int world_size, CostModel cm);

  CostModel cost;
  std::vector<std::unique_ptr<Mailbox>> mailboxes;  ///< indexed by world rank
  std::vector<VirtualClock> clocks;                 ///< indexed by world rank
  std::mutex ctx_mutex;
  int next_ctx = 1;  ///< context 0 is the world communicator

  // Hang watchdog: resolved timeout (CostModel value, PNC_HANG_TIMEOUT_MS
  // env override) and the per-rank wait trace it dumps before aborting.
  double hang_timeout_ms = 0.0;
  std::mutex trace_mutex;
  std::vector<WaitRecord> waits;  ///< indexed by world rank

  /// Print every rank's wait state and the mailbox depths, then abort.
  /// Called by the rank whose Recv timed out.
  [[noreturn]] void DumpHangAndAbort(int world_rank);

  // --- rank-fault injection (inactive until armed) ---
  RankFaultState rfault;

  /// Install a rank-fault schedule. Must be called before the rank threads
  /// start (the runtime does this); arming mid-run is not supported.
  void ArmRankFaults(const RankFaultPolicy& policy);

  /// True when `world_rank` has crashed.
  [[nodiscard]] bool RankDeadWorld(int world_rank) const {
    return rfault.armed &&
           rfault.dead[world_rank].load(std::memory_order_acquire);
  }

  /// Flag `world_rank` dead, wake every blocked receiver, and re-evaluate
  /// every pending agreement round (a round whose only missing participants
  /// just died is now complete). Called by the dying rank itself.
  void MarkRankDead(int world_rank);

  /// Finalize `slot`'s current round if every live member has arrived.
  /// Caller holds rfault.mu.
  void MaybeFinalizeAgreeLocked(AgreeSlot& slot);
};

Comm MakeComm(std::shared_ptr<SharedState> state, std::vector<int> members,
              int rank);

}  // namespace detail

/// Reduction combiner: fold `incoming` into `accum` (equal-length buffers).
using ReduceFn =
    std::function<void(pnc::ByteSpan accum, pnc::ConstByteSpan incoming)>;

/// An MPI_Comm-alike. Copyable; copies alias the same communication context
/// (as MPI handles do). Collective calls must be made by every member.
class Comm {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return static_cast<int>(members_.size()); }

  [[nodiscard]] VirtualClock& clock() { return state_->clocks[world_rank_]; }
  [[nodiscard]] const CostModel& cost() const { return state_->cost; }

  // --- point to point ---
  void Send(int dst, int tag, pnc::ConstByteSpan data);
  /// Blocking receive; returns payload. `actual_src`/`actual_tag` report the
  /// matched envelope when wildcards were used.
  std::vector<std::byte> Recv(int src, int tag, int* actual_src = nullptr,
                              int* actual_tag = nullptr);

  // --- collectives ---
  void Barrier();
  /// Byte-buffer broadcast; non-root buffers are resized to fit.
  void Bcast(std::vector<std::byte>& buf, int root);
  /// In-place fixed-size broadcast.
  void Bcast(pnc::ByteSpan buf, int root);

  /// Gather variable-size blobs; result valid (size()==P) only at root.
  std::vector<std::vector<std::byte>> Gather(pnc::ConstByteSpan mine, int root);
  /// Allgather of variable-size blobs (valid everywhere).
  std::vector<std::vector<std::byte>> Allgather(pnc::ConstByteSpan mine);
  /// Scatter variable-size blobs from root; returns this rank's piece.
  std::vector<std::byte> Scatter(std::vector<std::vector<std::byte>> pieces,
                                 int root);
  /// Personalized all-to-all of variable-size blobs. send[i] goes to rank i;
  /// result[j] is what rank j sent to this rank.
  std::vector<std::vector<std::byte>> Alltoall(
      std::vector<std::vector<std::byte>> send);

  /// Binomial-tree reduction of a byte buffer; result valid at root.
  void Reduce(pnc::ByteSpan inout, const ReduceFn& fn, int root);
  void Allreduce(pnc::ByteSpan inout, const ReduceFn& fn);

  // --- typed conveniences ---
  template <typename T>
  void BcastValue(T& v, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bcast(pnc::ByteSpan(reinterpret_cast<std::byte*>(&v), sizeof(T)), root);
  }

  template <typename T>
  T AllreduceMax(T v) {
    return AllreduceWith(v, [](T a, T b) { return a > b ? a : b; });
  }
  template <typename T>
  T AllreduceMin(T v) {
    return AllreduceWith(v, [](T a, T b) { return a < b ? a : b; });
  }
  template <typename T>
  T AllreduceSum(T v) {
    return AllreduceWith(v, [](T a, T b) { return a + b; });
  }
  bool AllreduceAnd(bool v) {
    return AllreduceWith<std::uint8_t>(v ? 1 : 0, [](std::uint8_t a,
                                                     std::uint8_t b) {
             return static_cast<std::uint8_t>(a & b);
           }) != 0;
  }

  /// True on every rank iff all ranks passed bitwise-identical bytes.
  /// Used by PnetCDF's collective define-mode consistency checks.
  bool AllAgree(pnc::ConstByteSpan bytes);

  // --- fault-aware agreement (paper §4.2.1: the root acts, every rank
  // agrees) ---
  // The one place that chooses between a plain collective and a
  // fault-tolerant agreement. With no rank-fault schedule armed each helper
  // issues exactly the plain collective named below and returns Ok. Armed,
  // it runs through AgreeFT, so a crashed member turns into kRankFailed on
  // every survivor instead of a hang or an abort; a rank that has itself
  // crashed gets kRankFailed at once.

  /// Barrier (armed: one agreement round).
  pnc::Status AgreeBarrier();
  /// Every rank leaves with rank 0's `*v` (a status, a flag): BcastValue
  /// (armed: a min-fold to which the other ranks contribute +inf).
  pnc::Status AgreeRoot(int* v);
  /// `*out` = the minimum (maximum) of `v` over the ranks: AllreduceMin
  /// (AllreduceMax) of T (armed: an order-preserving min-fold).
  template <typename T>
  pnc::Status AgreeMin(T v, T* out) {
    return AgreeFold(v, /*max=*/false, out);
  }
  template <typename T>
  pnc::Status AgreeMax(T v, T* out) {
    return AgreeFold(v, /*max=*/true, out);
  }
  /// Status agreement, the most severe status wins: Ok everywhere when all
  /// ranks were ok; a rank holding the most severe (most negative) code
  /// keeps its own status and every other rank gets that code with
  /// `peer_msg` (AllreduceMin of the int code). With `peer_err` set the
  /// fold narrows to a one-byte failed flag: every failed rank keeps its own
  /// status and the others get `peer_err`. Armed, a death outranks any code.
  pnc::Status AgreeStatus(const pnc::Status& local, std::string_view peer_msg,
                          std::optional<pnc::Err> peer_err = std::nullopt);
  /// Rank 0's `bytes` everywhere: Bcast (armed: point-to-point sends on
  /// `ft_tag`, fault-tolerant receives, then an agreement, so a root that
  /// dies mid-broadcast is kRankFailed on every survivor).
  pnc::Status AgreeBcast(std::vector<std::byte>& bytes, int ft_tag);
  /// `*same` = every rank passed bitwise-identical bytes: AllAgree (armed:
  /// the min and max of a 64-bit hash of the bytes coincide).
  pnc::Status AgreeSame(pnc::ConstByteSpan bytes, bool* same);
  /// Personalized all-to-all (see Alltoall). Armed: every rank posts all
  /// its sends on `ft_tag` before draining any receive, so a peer dying
  /// mid-exchange leaves only empty slots in `*out` and kRankFailed.
  pnc::Status AgreeAlltoall(std::vector<std::vector<std::byte>> send,
                            int ft_tag,
                            std::vector<std::vector<std::byte>>* out);
  /// Collective entry: the communicator the collective runs on — this one,
  /// or (armed, when a member has died) the agreed survivor subset, over
  /// which work is re-divided deterministically.
  pnc::Result<Comm> EnterCollective();
  /// Pre-collective clock rendezvous: every rank leaves at the latest
  /// arrival's clock. SyncClocksToMax (armed: one agreement round, which
  /// also reports a death).
  pnc::Status Rendezvous();
  /// Post-collective clock rendezvous, after an agreement: SyncClocksToMax
  /// (armed: nothing — the agreement already synchronized the survivors,
  /// and an allreduce would abort on a dead member).
  void RendezvousAfterAgreement();

  // --- rank-fault tolerance primitives (see rankfault.hpp) ---
  // The agreement helpers above are built on these. They are meaningful
  // only while a RankFaultPolicy is armed; with no policy armed
  // FaultsArmed() is false and the *FT calls must not be used.

  /// True when a rank-fault schedule is armed for this world.
  [[nodiscard]] bool FaultsArmed() const { return state_->rfault.armed; }
  /// True when communicator rank `rank` has crashed.
  [[nodiscard]] bool RankDead(int rank) const {
    return state_->RankDeadWorld(members_[rank]);
  }
  /// True when this rank has crashed (Comm ops are inert no-ops).
  [[nodiscard]] bool SelfDead() const {
    return state_->RankDeadWorld(world_rank_);
  }

  /// Fault-tolerant receive: blocks until a matching message arrives or
  /// `src` is known dead with nothing matching queued. Messages sent before
  /// the sender died are still delivered. Returns false on a dead source.
  bool RecvFT(int src, int tag, std::vector<std::byte>& out);

  /// Fault-tolerant agreement (models MPI_Comm_agree): every live member
  /// contributes `value`; the round completes when all live members have
  /// arrived (a member dying mid-round completes it too), and every
  /// survivor receives the identical outcome — min-fold of the live
  /// contributions, whether any member is dead, the survivor set, and (when
  /// some member died) a fresh context for LiveSubsetFT. Synchronizes
  /// survivor clocks to the latest arrival. Dead-self returns immediately
  /// with any_dead=true and an empty survivor set.
  AgreeOutcome AgreeFT(std::int64_t value);

  /// The communicator of `o.alive` (an AgreeOutcome with any_dead=true from
  /// this comm). Purely local: every survivor derives the identical member
  /// list and context from the agreed outcome, so no messages are needed.
  /// Caller must be in `o.alive`.
  [[nodiscard]] Comm LiveSubsetFT(const AgreeOutcome& o) const;

  // --- communicator management ---
  Comm Dup();
  Comm Split(int color, int key);

  /// Synchronize all member clocks to the maximum (used at collective I/O
  /// boundaries where the slowest rank gates completion).
  void SyncClocksToMax();

 private:
  friend Comm detail::MakeComm(std::shared_ptr<detail::SharedState>,
                               std::vector<int>, int);
  Comm(std::shared_ptr<detail::SharedState> state, int ctx,
       std::vector<int> members, int rank)
      : state_(std::move(state)),
        ctx_(ctx),
        members_(std::move(members)),
        rank_(rank),
        world_rank_(members_[rank_]) {}

  template <typename T, typename F>
  T AllreduceWith(T v, F op) {
    static_assert(std::is_trivially_copyable_v<T>);
    Allreduce(pnc::ByteSpan(reinterpret_cast<std::byte*>(&v), sizeof(T)),
              [&op](pnc::ByteSpan a, pnc::ConstByteSpan b) {
                T x, y;
                std::memcpy(&x, a.data(), sizeof(T));
                std::memcpy(&y, b.data(), sizeof(T));
                x = op(x, y);
                std::memcpy(a.data(), &x, sizeof(T));
              });
    return v;
  }

  /// Armed-mode core of the helpers: one AgreeFT round folding the minimum
  /// of `v`; kRankFailed when this rank or a peer is dead.
  pnc::Status AgreeLive(std::int64_t v, std::int64_t* out);

  template <typename T>
  pnc::Status AgreeFold(T v, bool max, T* out) {
    static_assert(std::is_integral_v<T>);
    if (!FaultsArmed()) {
      *out = max ? AllreduceMax<T>(v) : AllreduceMin<T>(v);
      return pnc::Status::Ok();
    }
    // Order-preserving map into int64 (unsigned: flip the top bit); the
    // maximum is the complement of the minimum of the complements.
    constexpr std::uint64_t kFlip =
        std::is_unsigned_v<T> ? std::uint64_t{1} << 63 : 0;
    std::int64_t key = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(v)) ^ kFlip);
    if (max) key = ~key;
    std::int64_t agreed = 0;
    PNC_RETURN_IF_ERROR(AgreeLive(key, &agreed));
    if (max) agreed = ~agreed;
    *out = static_cast<T>(static_cast<std::uint64_t>(agreed) ^ kFlip);
    return pnc::Status::Ok();
  }

  void SendInternal(int dst, int tag, pnc::ConstByteSpan data);
  std::vector<std::byte> RecvInternal(int src, int tag);

  /// Shared blocking-receive machinery. In FT mode a dead source (with no
  /// matching message queued) returns false; otherwise it aborts with a
  /// diagnostic — a non-FT wait on a dead rank is a caller bug under an
  /// armed policy, and aborting beats a 30 s watchdog stall.
  bool RecvImpl(int src, int tag, int* actual_src, int* actual_tag, bool ft,
                std::vector<std::byte>& out);
  /// Injection point: counts this op and crashes (throws RankCrash, after
  /// marking this rank dead) when the armed schedule says so.
  void MaybeCrashSelf();
  [[noreturn]] void CrashSelf();

  std::shared_ptr<detail::SharedState> state_;
  int ctx_;
  std::vector<int> members_;  ///< members_[r] = world rank of communicator rank r
  int rank_;
  int world_rank_;
};

}  // namespace simmpi
