#pragma once
// Event record and allocation-free action callable for the
// discrete-event engine.
//
// InlineAction<Args...> is a move-only, small-buffer-optimized
// replacement for std::function<void(Args...)>: captures up to
// kInlineCapacity bytes live inside the action itself (and therefore
// inside the queue's slot pool or the delivery bucket's entry), so
// scheduling an event or filing a delivery performs zero heap
// allocations for every capture size the protocol layers actually use.
// Oversized captures fall back to a single heap cell.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

#include "util/types.hpp"

namespace continu::sim {

/// Handle for a scheduled event: (sequence << kSlotBits) | slot.
/// The sequence is globally monotonic, so comparing ids of two pending
/// events orders them by schedule time — the deterministic FIFO
/// tie-break among equal-time events. The low bits address the queue's
/// slot pool; a stale handle (slot since reused) simply fails the
/// queue's one-compare validation.
using EventId = std::uint64_t;

/// Sequences start at 1, so no valid id is ever 0.
inline constexpr EventId kInvalidEvent = 0;

/// Move-only, small-buffer-optimized callable invoked as void(Args...).
/// EventAction (no arguments) is the simulator's event payload;
/// net::DeliveryAction (a DeliveryContext&) is the quantized network's.
template <typename... Args>
class InlineAction {
 public:
  /// Sized for the largest capture the protocol layers schedule (the
  /// DHT routing hop: 48 bytes + the network delivery wrapper's 16).
  /// Keeping this at 64 holds a queue slot to 88 bytes — the slot pool
  /// footprint is what bounds large-session cache behaviour.
  static constexpr std::size_t kInlineCapacity = 64;

  InlineAction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineAction> &&
                std::is_invocable_v<std::decay_t<F>&, Args...>>>
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design,
  // mirroring std::function at the scheduling call sites.
  InlineAction(F&& f) {
    emplace(std::forward<F>(f));
  }

  InlineAction(InlineAction&& other) noexcept { move_from(other); }
  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;
  ~InlineAction() { reset(); }

  /// Destroys the held callable, leaving the action empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// Constructs a callable in place (destroying any current one)
  /// without routing through a temporary action — the zero-move path
  /// the queue's slot pool uses.
  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    reset();
    if constexpr (std::is_same_v<D, std::function<void(Args...)>>) {
      if (!f) return;
    }
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &OpsFor<D, /*Inline=*/true>::ops;
    } else {
      *reinterpret_cast<D**>(static_cast<void*>(buf_)) = new D(std::forward<F>(f));
      ops_ = &OpsFor<D, /*Inline=*/false>::ops;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invokes the held callable. Requires non-empty.
  void operator()(Args... args) { ops_->invoke(buf_, args...); }

  /// Invokes the held callable once and destroys it (one indirect call
  /// instead of invoke + destroy), leaving the action empty. The hot
  /// path of the simulator's run loop and of bucket dispatch. Requires
  /// non-empty.
  void consume(Args... args) {
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->consume(buf_, args...);
  }

  /// True when the callable lives in the inline buffer (introspection
  /// for tests and benches; heap fallback means an oversized capture).
  [[nodiscard]] bool stored_inline() const noexcept {
    return ops_ != nullptr && ops_->inline_stored;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage, Args... args);
    /// Invoke once, then destroy (fused fire-and-free).
    void (*consume)(void* storage, Args... args);
    /// Move-constructs into dst from src's storage, destroying src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool inline_stored;
  };

  template <typename D>
  [[nodiscard]] static constexpr bool fits_inline() noexcept {
    return sizeof(D) <= kInlineCapacity &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D, bool Inline>
  struct OpsFor;

  template <typename D>
  struct OpsFor<D, true> {
    static D* self(void* p) noexcept { return std::launder(reinterpret_cast<D*>(p)); }
    static void invoke(void* p, Args... args) { (*self(p))(args...); }
    static void consume(void* p, Args... args) {
      D* s = self(p);
      // Guard, not a trailing dtor call: the capture must be destroyed
      // even when the invocation throws.
      struct Guard {
        D* d;
        ~Guard() { d->~D(); }
      } guard{s};
      (*s)(args...);
    }
    static void relocate(void* dst, void* src) noexcept {
      D* s = self(src);
      ::new (dst) D(std::move(*s));
      s->~D();
    }
    static void destroy(void* p) noexcept { self(p)->~D(); }
    static constexpr Ops ops = {&invoke, &consume, &relocate, &destroy, true};
  };

  template <typename D>
  struct OpsFor<D, false> {
    static D* held(void* p) noexcept {
      return *std::launder(reinterpret_cast<D**>(p));
    }
    static void invoke(void* p, Args... args) { (*held(p))(args...); }
    static void consume(void* p, Args... args) {
      struct Guard {
        D* h;
        ~Guard() { delete h; }
      } guard{held(p)};
      (*guard.h)(args...);
    }
    static void relocate(void* dst, void* src) noexcept {
      std::memcpy(dst, src, sizeof(D*));
    }
    static void destroy(void* p) noexcept { delete held(p); }
    static constexpr Ops ops = {&invoke, &consume, &relocate, &destroy, false};
  };

  void move_from(InlineAction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

using EventAction = InlineAction<>;

/// A popped event: fire order is (time, id) — earlier time first, FIFO
/// (schedule order) among equal times, so runs are bit-for-bit
/// reproducible.
struct Event {
  SimTime time = 0.0;
  EventId id = kInvalidEvent;
  EventAction action;
};

}  // namespace continu::sim
