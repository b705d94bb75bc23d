#include "overlay/overheard_list.hpp"

#include <algorithm>
#include <stdexcept>

namespace continu::overlay {

OverheardList::OverheardList(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("OverheardList: capacity must be positive");
  }
  entries_.reserve(capacity);
}

void OverheardList::hear(NodeId id, double latency_ms, SimTime now) {
  // Move-to-front as one shift of the prefix: the entries ahead of the
  // slot to overwrite move back one, and the new entry takes the front.
  // That slot is the id's old entry if it is listed, else a new one at
  // the back, or the oldest entry when the list is full.
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [id](const OverheardNode& e) { return e.id == id; });
  if (it == entries_.end()) {
    if (entries_.size() < capacity_) entries_.emplace_back();
    it = entries_.end() - 1;
  }
  std::move_backward(entries_.begin(), it, it + 1);
  entries_.front() =
      OverheardNode{id, static_cast<float>(latency_ms), static_cast<float>(now)};
}

void OverheardList::forget(NodeId id) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [id](const OverheardNode& e) { return e.id == id; }),
                 entries_.end());
}

std::optional<OverheardNode> OverheardList::best_candidate(
    const std::vector<NodeId>& excluded) const {
  std::optional<OverheardNode> best;
  for (const auto& entry : entries_) {
    if (std::find(excluded.begin(), excluded.end(), entry.id) != excluded.end()) {
      continue;
    }
    if (!best.has_value() || entry.latency_ms < best->latency_ms) {
      best = entry;
    }
  }
  return best;
}

bool OverheardList::contains(NodeId id) const noexcept {
  return std::any_of(entries_.begin(), entries_.end(),
                     [id](const OverheardNode& e) { return e.id == id; });
}

}  // namespace continu::overlay
