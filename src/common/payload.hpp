// Payload: one update's application bytes, immutable and shared.
//
// LBRM hands one update's bytes to the primary log, every secondary log and
// replica, and every receiver (paper Sections 2, 2.2).  A Payload is built
// once -- per SenderCore::send, or per decoded datagram -- and every copy of
// a packet, log entry, delivery or record that carries it shares that one
// buffer: copying a Payload bumps a reference count and never copies bytes.
// The bytes never change after construction, so a shared buffer needs no
// further synchronisation; the count is std::shared_ptr's, which stays
// correct if a payload ever crosses threads.
//
// A Payload is a shared pointer and a length, the size of the std::vector
// it replaced, and building one costs one allocation (the count and the
// bytes share a block).  An empty payload holds no block at all.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

namespace lbrm {

class Payload {
public:
    Payload() = default;

    /// Copies `bytes` into a fresh buffer: the only copy the bytes get.
    /// Implicit, like the vector it replaces, so `DataBody{seq, epoch, {1, 2}}`
    /// and a body built from a vector or span still read naturally.
    Payload(std::span<const std::uint8_t> bytes) : size_(bytes.size()) {
        if (bytes.empty()) return;
        auto block = std::make_shared_for_overwrite<std::uint8_t[]>(bytes.size());
        std::memcpy(block.get(), bytes.data(), bytes.size());
        bytes_ = std::move(block);
    }
    Payload(const std::vector<std::uint8_t>& bytes)
        : Payload(std::span<const std::uint8_t>{bytes}) {}
    Payload(std::initializer_list<std::uint8_t> bytes)
        : Payload(std::span<const std::uint8_t>{bytes.begin(), bytes.size()}) {}

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] const std::uint8_t* data() const { return bytes_.get(); }
    [[nodiscard]] const std::uint8_t* begin() const { return data(); }
    [[nodiscard]] const std::uint8_t* end() const { return data() + size_; }
    [[nodiscard]] std::uint8_t operator[](std::size_t i) const { return data()[i]; }

    operator std::span<const std::uint8_t>() const { return {data(), size_}; }

    /// Byte-wise equality: two separately built payloads with the same
    /// bytes are equal, whether or not they share a buffer.
    friend bool operator==(const Payload& a, const Payload& b) {
        return a.bytes_ == b.bytes_ || std::ranges::equal(a, b);
    }
    friend bool operator==(const Payload& a, const std::vector<std::uint8_t>& b) {
        return std::ranges::equal(a, b);
    }

private:
    std::shared_ptr<const std::uint8_t[]> bytes_;
    std::size_t size_ = 0;
};

}  // namespace lbrm
