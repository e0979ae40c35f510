#include "core/log_store.hpp"

namespace lbrm {

bool LogStore::insert(TimePoint now, SeqNum seq, EpochId epoch, Payload payload) {
    auto [it, inserted] = entries_.try_emplace(seq, Entry{seq, epoch, std::move(payload), now});
    if (!inserted) return false;
    payload_bytes_ += it->second.payload.size();
    enforce_bounds();
    return true;
}

const LogStore::Entry* LogStore::find(SeqNum seq) const {
    auto it = entries_.find(seq);
    return it == entries_.end() ? nullptr : &it->second;
}

std::size_t LogStore::expire(TimePoint now) {
    if (policy_.max_age == Duration::zero()) return 0;
    std::size_t dropped = 0;
    while (!entries_.empty()) {
        auto oldest = serial_begin(entries_);
        if (now - oldest->second.stored_at <= policy_.max_age) break;
        payload_bytes_ -= oldest->second.payload.size();
        entries_.erase(oldest);
        ++dropped;
        ++evicted_;
    }
    return dropped;
}

void LogStore::release_through(SeqNum seq) {
    while (!entries_.empty()) {
        auto oldest = serial_begin(entries_);
        if (oldest->first > seq) break;
        payload_bytes_ -= oldest->second.payload.size();
        entries_.erase(oldest);
    }
}

bool LogStore::remove(SeqNum seq) {
    auto it = entries_.find(seq);
    if (it == entries_.end()) return false;
    payload_bytes_ -= it->second.payload.size();
    entries_.erase(it);
    return true;
}

std::vector<SeqNum> LogStore::gaps(SeqNum from, SeqNum to) const {
    std::vector<SeqNum> out;
    for (SeqNum s = from.next(); s <= to; ++s)
        if (!entries_.contains(s)) out.push_back(s);
    return out;
}

std::optional<SeqNum> LogStore::lowest() const {
    if (entries_.empty()) return std::nullopt;
    return serial_begin(entries_)->first;
}

std::optional<SeqNum> LogStore::highest() const {
    if (entries_.empty()) return std::nullopt;
    return serial_last(entries_)->first;
}

void LogStore::evict_oldest() {
    auto oldest = serial_begin(entries_);
    payload_bytes_ -= oldest->second.payload.size();
    entries_.erase(oldest);
    ++evicted_;
}

void LogStore::enforce_bounds() {
    if (policy_.max_entries != 0)
        while (entries_.size() > policy_.max_entries) evict_oldest();
    if (policy_.max_bytes != 0)
        while (payload_bytes_ > policy_.max_bytes && !entries_.empty()) evict_oldest();
}

}  // namespace lbrm
