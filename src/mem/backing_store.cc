#include "mem/backing_store.hh"

#include <algorithm>
#include <cstring>

namespace tf::mem {

void
BackingStore::read(Addr addr, void *dst, std::uint64_t len) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        std::uint64_t off = addr % pageBytes;
        std::uint64_t chunk = std::min(len, pageBytes - off);
        auto it = _pages.find(pageIndex(addr));
        if (it == _pages.end())
            std::memset(out, 0, chunk);
        else
            std::memcpy(out, it->second->data() + off, chunk);
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
BackingStore::write(Addr addr, const void *src, std::uint64_t len)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        std::uint64_t off = addr % pageBytes;
        std::uint64_t chunk = std::min(len, pageBytes - off);
        std::uint64_t idx = pageIndex(addr);
        auto it = _pages.find(idx);
        if (it == _pages.end() &&
            std::any_of(in, in + chunk, [](std::uint8_t b) { return b; })) {
            // make_unique value-initialises: the page starts zeroed.
            it = _pages.emplace(idx, std::make_unique<Page>()).first;
        }
        if (it != _pages.end())
            std::memcpy(it->second->data() + off, in, chunk);
        addr += chunk;
        in += chunk;
        len -= chunk;
    }
}

std::uint64_t
BackingStore::read64(Addr addr) const
{
    std::uint64_t v = 0;
    read(addr, &v, sizeof(v));
    return v;
}

void
BackingStore::write64(Addr addr, std::uint64_t value)
{
    write(addr, &value, sizeof(value));
}

} // namespace tf::mem
