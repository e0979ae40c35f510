#include "common/bytes.hpp"

#include <limits>
#include <stdexcept>

namespace lbrm {

void ByteWriter::blob16(std::span<const std::uint8_t> data) {
    if (data.size() > std::numeric_limits<std::uint16_t>::max())
        throw std::length_error("ByteWriter::blob16: payload exceeds 65535 bytes");
    u16(static_cast<std::uint16_t>(data.size()));
    bytes(data);
}

std::optional<Payload> ByteReader::blob16() {
    auto len = u16();
    if (!len) return std::nullopt;
    auto body = bytes(*len);
    if (!body) return std::nullopt;
    return Payload{*body};
}

std::optional<std::string> ByteReader::str16() {
    auto len = u16();
    if (!len) return std::nullopt;
    auto body = bytes(*len);
    if (!body) return std::nullopt;
    return std::string(reinterpret_cast<const char*>(body->data()), body->size());
}

}  // namespace lbrm
