#include "fpga/bitgen.hpp"

#include <array>

#include "support/rng.hpp"

namespace jitise::fpga {

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i)
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

Bitstream generate_bitstream(const MappedDesign& design, const Fabric& fabric,
                             const Placement& placement,
                             const RoutingResult& routing,
                             const std::string& part) {
  Bitstream bs;
  bs.part = part;
  bs.region_width = fabric.width();
  bs.region_height = fabric.height();

  const std::uint16_t w = fabric.width();
  const std::uint16_t h = fabric.height();

  // Per-tile configuration word: occupancy + cell identity hash.
  std::vector<std::uint32_t> tile_cfg(static_cast<std::size_t>(w) * h, 0);
  for (hwlib::CellId c = 0; c < design.cells.size(); ++c) {
    const Coord p = placement.location[c];
    support::Fnv1a hash;
    hash.update(design.cells[c].name.data(), design.cells[c].name.size());
    hash.update_value<std::uint8_t>(
        static_cast<std::uint8_t>(design.cells[c].kind));
    tile_cfg[static_cast<std::size_t>(p.y) * w + p.x] =
        0x80000000u | (static_cast<std::uint32_t>(hash.digest()) & 0x7fffffffu);
  }

  // Per-tile routing switch state: 4 direction bits x usage count (clamped).
  std::vector<std::uint16_t> tile_switch(static_cast<std::size_t>(w) * h, 0);
  for (const RoutedNet& rn : routing.nets) {
    for (std::uint32_t eid : rn.edges) {
      const std::uint32_t tile = edge_from(eid);
      const unsigned shift = edge_direction(eid) * 4;
      const std::uint16_t cur = (tile_switch[tile] >> shift) & 0xF;
      if (cur < 0xF) {
        tile_switch[tile] =
            static_cast<std::uint16_t>(tile_switch[tile] & ~(0xFu << shift));
        tile_switch[tile] |= static_cast<std::uint16_t>((cur + 1u) << shift);
      }
    }
  }

  // Header: magic, part hash, geometry.
  auto push32 = [&](std::uint32_t v) {
    bs.bytes.push_back(static_cast<std::uint8_t>(v >> 24));
    bs.bytes.push_back(static_cast<std::uint8_t>(v >> 16));
    bs.bytes.push_back(static_cast<std::uint8_t>(v >> 8));
    bs.bytes.push_back(static_cast<std::uint8_t>(v));
  };
  push32(0xAA995566u);  // Xilinx sync word
  support::Fnv1a part_hash;
  part_hash.update(part.data(), part.size());
  push32(static_cast<std::uint32_t>(part_hash.digest()));
  push32((static_cast<std::uint32_t>(w) << 16) | h);

  // One frame per column: per tile 6 bytes (4 cfg + 2 switch).
  for (std::uint16_t x = 0; x < w; ++x) {
    push32(0x30008001u);  // frame header (type-1 write, FDRI-style)
    for (std::uint16_t y = 0; y < h; ++y) {
      const std::size_t idx = static_cast<std::size_t>(y) * w + x;
      push32(tile_cfg[idx]);
      bs.bytes.push_back(static_cast<std::uint8_t>(tile_switch[idx] >> 8));
      bs.bytes.push_back(static_cast<std::uint8_t>(tile_switch[idx]));
    }
    ++bs.frame_count;
  }

  bs.crc32 = crc32(bs.bytes.data(), bs.bytes.size());
  push32(bs.crc32);
  return bs;
}

}  // namespace jitise::fpga
