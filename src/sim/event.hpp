#pragma once
// Allocation-free action callable for the discrete-event engine.
//
// InlineAction<Args...> is a move-only, small-buffer replacement for
// std::function<void(Args...)>: the capture lives inside the action
// itself (and therefore inside the queue's slot pool or the delivery
// bucket's entry), so scheduling an event or filing a delivery
// performs zero heap allocations. There is no heap fallback:
// InlineAction::emplace — the one constructor every engine entry
// point goes through — static-asserts fits_inline<F>, so a protocol
// capture that outgrows the buffer fails to compile.

#include <cstddef>
#include <cstdint>
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

/// Inline capture bytes of an InlineAction: with its 8-byte ops
/// pointer, one action is exactly one 64-byte cache line.
inline constexpr std::size_t kInlineActionCapacity = 56;

/// True when a callable of type F (decayed) fits an InlineAction's
/// buffer: at most kInlineActionCapacity bytes, at most 8-byte aligned,
/// and nothrow movable (the queue and the delivery buckets relocate
/// actions from noexcept paths). InlineAction::emplace static-asserts
/// it.
template <typename F>
inline constexpr bool fits_inline =
    sizeof(std::decay_t<F>) <= kInlineActionCapacity &&
    alignof(std::decay_t<F>) <= alignof(std::uint64_t) &&
    std::is_nothrow_move_constructible_v<std::decay_t<F>>;

/// Move-only callable with inline storage, invoked as void(Args...).
/// EventAction (no arguments) is the simulator's event payload;
/// net::DeliveryAction (a DeliveryContext&) is the quantized network's.
template <typename... Args>
class InlineAction {
 public:
  /// Sized so the action is one cache line. The largest protocol
  /// captures fill it exactly: a continuous-mode sharded delivery of a
  /// segment request or a nack (40 bytes + the 16-byte wrapper).
  static constexpr std::size_t kInlineCapacity = kInlineActionCapacity;

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
    static_assert(fits_inline<D>,
                  "action capture exceeds the inline buffer; shrink it (pack "
                  "indices, pool shared state) instead of heap-allocating");
    reset();
    if constexpr (std::is_same_v<D, std::function<void(Args...)>>) {
      if (!f) return;
    }
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    ops_ = &OpsFor<D>::ops;
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

 private:
  struct Ops {
    void (*invoke)(void* storage, Args... args);
    /// Invoke once, then destroy (fused fire-and-free).
    void (*consume)(void* storage, Args... args);
    /// Move-constructs into dst from src's storage, destroying src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  struct OpsFor {
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
    static constexpr Ops ops = {&invoke, &consume, &relocate, &destroy};
  };

  void move_from(InlineAction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::uint64_t) unsigned char buf_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

using EventAction = InlineAction<>;

}  // namespace continu::sim
