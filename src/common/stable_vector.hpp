// StableVector: a chunked, append-only sequence with stable element
// addresses -- push never moves existing elements, so references handed out
// by emplace_back remain valid for the container's lifetime (the guarantee
// Network documents for its hosts and link records).
//
// Chunks double in size (1, 2, 4, 8, ...), so a container holding a single
// element costs one exact-size allocation -- unlike std::deque, whose empty
// footprint is a block map plus a full fixed-size block -- while a million
// elements cost only ~20 allocations.  Chunk 0's pointer lives in the
// container itself and the table of later chunks is allocated with the
// second element, so an empty container is 24 bytes and a one-element one
// costs its chunk alone.  Elements need not
// be movable or copyable.  Index math: chunk c covers indices
// [2^c - 1, 2^(c+1) - 1).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace lbrm {

template <typename T>
class StableVector {
public:
    StableVector() = default;
    StableVector(const StableVector&) = delete;
    StableVector& operator=(const StableVector&) = delete;
    ~StableVector() { clear(); }

    template <typename... Args>
    T& emplace_back(Args&&... args) {
        static_assert(alignof(T) <= alignof(std::max_align_t),
                      "chunk storage is max_align_t-aligned");
        const std::size_t chunk = chunk_of(size_);
        if (size_ + 1 != std::size_t{1} << chunk) {  // room in the last chunk
            T* obj = new (slot(size_)) T(std::forward<Args>(args)...);
            ++size_;
            return *obj;
        }
        // First element of a new chunk.  The later-chunk table is
        // re-allocated at its exact size, a copy of at most ~60 pointers
        // once per doubling.  Both allocations precede the construction
        // and nothing is installed until it succeeds, so a throwing
        // constructor leaves the container as it was.
        std::unique_ptr<std::byte[]> bytes(new std::byte[sizeof(T) << chunk]);
        std::unique_ptr<std::byte*[]> table;
        if (chunk > 0) {
            table = std::make_unique<std::byte*[]>(chunk);
            std::copy_n(later_.get(), chunk - 1, table.get());
            table[chunk - 1] = bytes.get();
        }
        T* obj = new (bytes.get()) T(std::forward<Args>(args)...);
        if (chunk == 0) {
            first_ = std::move(bytes);
        } else {
            later_ = std::move(table);
            bytes.release();  // owned through later_ from here on
        }
        ++size_;
        return *obj;
    }

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }

    [[nodiscard]] T& operator[](std::size_t i) {
        return *std::launder(reinterpret_cast<T*>(slot(i)));
    }
    [[nodiscard]] const T& operator[](std::size_t i) const {
        return *std::launder(reinterpret_cast<const T*>(
            const_cast<StableVector*>(this)->slot(i)));
    }

    [[nodiscard]] T& back() { return (*this)[size_ - 1]; }

    /// Destroy every element and release all chunks.
    void clear() {
        for (std::size_t i = size_; i > 0; --i) (*this)[i - 1].~T();
        const std::size_t chunks = size_ == 0 ? 0 : chunk_of(size_ - 1) + 1;
        for (std::size_t c = 1; c < chunks; ++c) delete[] later_[c - 1];
        size_ = 0;
        first_.reset();
        later_.reset();
    }

    // Minimal forward iteration (enough for range-for).
    template <bool Const>
    class Iter {
    public:
        using Parent = std::conditional_t<Const, const StableVector, StableVector>;
        Iter(Parent* p, std::size_t i) : parent_(p), index_(i) {}
        auto& operator*() const { return (*parent_)[index_]; }
        auto* operator->() const { return &(*parent_)[index_]; }
        Iter& operator++() {
            ++index_;
            return *this;
        }
        friend bool operator==(const Iter& a, const Iter& b) {
            return a.index_ == b.index_;
        }

    private:
        Parent* parent_;
        std::size_t index_;
    };
    [[nodiscard]] auto begin() { return Iter<false>{this, 0}; }
    [[nodiscard]] auto end() { return Iter<false>{this, size_}; }
    [[nodiscard]] auto begin() const { return Iter<true>{this, 0}; }
    [[nodiscard]] auto end() const { return Iter<true>{this, size_}; }

private:
    [[nodiscard]] static std::size_t chunk_of(std::size_t i) {
        return static_cast<std::size_t>(std::bit_width(i + 1)) - 1;
    }

    [[nodiscard]] std::byte* slot(std::size_t i) {
        if (i == 0) return first_.get();
        const std::size_t chunk = chunk_of(i);
        const std::size_t offset = i + 1 - (std::size_t{1} << chunk);
        return later_[chunk - 1] + offset * sizeof(T);
    }

    std::unique_ptr<std::byte[]> first_;   ///< chunk 0
    std::unique_ptr<std::byte*[]> later_;  ///< chunks 1..; each freed by clear()
    std::size_t size_ = 0;
};

}  // namespace lbrm
