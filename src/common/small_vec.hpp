// SmallVec: a vector with small-buffer optimisation.
//
// The first N elements live inline in the object; growth beyond N spills to
// the heap like an ordinary vector.  Two uses (DESIGN.md "Memory
// engineering"):
//   * per-host collections that almost always hold one or two elements -- a
//     receiver host's armed timers, its dormant-receiver records -- each cost
//     a separate ~48-byte heap chunk as std::vector, and at 10M hosts those
//     chunks dominate RSS.  Inline storage folds them into the host's own
//     arena slot.
//   * the action list every core call returns (core/actions.hpp), which
//     lives in the caller's stack frame, so a live delivery allocates none.
//
// Supports non-trivial element types (move-constructed into place,
// destroyed on erase).  Iterators are raw pointers and follow vector
// invalidation rules: any growth, and erase/pop_back past the erase point,
// invalidates them.  Not copyable (nothing in this codebase copies one);
// movable, including the inline case (elements are moved one by one).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace lbrm {

template <typename T, std::size_t N>
class SmallVec {
public:
    static_assert(N > 0, "SmallVec needs at least one inline slot");

    SmallVec() = default;
    SmallVec(const SmallVec&) = delete;
    SmallVec& operator=(const SmallVec&) = delete;

    SmallVec(SmallVec&& other) noexcept { steal(std::move(other)); }
    SmallVec& operator=(SmallVec&& other) noexcept {
        if (this != &other) {
            destroy();
            steal(std::move(other));
        }
        return *this;
    }

    ~SmallVec() { destroy(); }

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t capacity() const { return cap_; }
    /// Whether the elements currently live in the inline buffer (tests).
    [[nodiscard]] bool inline_storage() const { return data() == inline_ptr(); }

    [[nodiscard]] T* begin() { return data(); }
    [[nodiscard]] T* end() { return data() + size_; }
    [[nodiscard]] const T* begin() const { return data(); }
    [[nodiscard]] const T* end() const { return data() + size_; }

    [[nodiscard]] T& operator[](std::size_t i) { return data()[i]; }
    [[nodiscard]] const T& operator[](std::size_t i) const { return data()[i]; }
    [[nodiscard]] T& back() { return data()[size_ - 1]; }
    [[nodiscard]] const T& back() const { return data()[size_ - 1]; }

    void push_back(const T& v) { emplace_back(v); }
    void push_back(T&& v) { emplace_back(std::move(v)); }

    template <typename... Args>
    T& emplace_back(Args&&... args) {
        if (size_ == cap_) grow(std::size_t{cap_} * 2);
        T* slot = new (data() + size_) T(std::forward<Args>(args)...);
        ++size_;
        return *slot;
    }

    void pop_back() {
        data()[size_ - 1].~T();
        --size_;
    }

    /// Order-preserving erase (the dormant-record contract: records stay
    /// ascending by tag).  Returns the iterator past the erased slot.
    T* erase(T* pos) {
        for (T* p = pos; p + 1 != end(); ++p) *p = std::move(p[1]);
        pop_back();
        return pos;
    }

    void clear() {
        for (std::size_t i = size_; i > 0; --i) data()[i - 1].~T();
        size_ = 0;
    }

    void reserve(std::size_t want) {
        if (want > cap_) grow(want);
    }

private:
    [[nodiscard]] T* inline_ptr() {
        return std::launder(reinterpret_cast<T*>(inline_storage_));
    }
    [[nodiscard]] const T* inline_ptr() const {
        return std::launder(reinterpret_cast<const T*>(inline_storage_));
    }
    [[nodiscard]] T* data() { return heap_ ? heap_ : inline_ptr(); }
    [[nodiscard]] const T* data() const { return heap_ ? heap_ : inline_ptr(); }

    void grow(std::size_t want) {
        const auto cap =
            static_cast<std::uint32_t>(want < 2 * N ? 2 * N : want);
        T* fresh = static_cast<T*>(::operator new(cap * sizeof(T), align()));
        for (std::size_t i = 0; i < size_; ++i) {
            new (fresh + i) T(std::move(data()[i]));
            data()[i].~T();
        }
        release_heap();
        heap_ = fresh;
        cap_ = cap;
    }

    void destroy() {
        clear();
        release_heap();
        heap_ = nullptr;
        cap_ = N;
    }

    void release_heap() {
        if (heap_) ::operator delete(heap_, align());
    }

    void steal(SmallVec&& other) {
        if (other.heap_) {  // take the heap buffer wholesale
            heap_ = other.heap_;
            cap_ = other.cap_;
            size_ = other.size_;
            other.heap_ = nullptr;
        } else {  // inline: move element-wise
            heap_ = nullptr;
            cap_ = N;
            size_ = other.size_;
            for (std::size_t i = 0; i < size_; ++i) {
                new (inline_ptr() + i) T(std::move(other.data()[i]));
                other.data()[i].~T();
            }
        }
        other.size_ = 0;
        other.cap_ = N;
    }

    [[nodiscard]] static constexpr std::align_val_t align() {
        return std::align_val_t{alignof(T)};
    }

    // u32 counts keep the header at 16 bytes -- per-host footprint matters
    // at 10M hosts, and no collection here approaches 2^32 elements.
    T* heap_ = nullptr;  ///< null = elements live in inline_storage_
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = N;
    alignas(T) std::byte inline_storage_[N * sizeof(T)];
};

}  // namespace lbrm
