#include "campaign/cache.h"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace portend::campaign {

namespace fs = std::filesystem;

std::string
serializeCacheEntry(const CacheEntry &e)
{
    std::ostringstream os;
    os << "portend-campaign-entry-v1\n";
    os << "sig " << e.sig << "\n";
    os << "fp " << hex16(e.key.fingerprint) << "\n";
    os << "trace " << hex16(0) << "\n"; // the retired trace hash
    os << "cfg " << hex16(e.key.config_hash) << "\n";
    os << "name " << e.name << "\n";
    os << "bytes " << e.payload.size() << "\n";
    os << e.payload;
    return os.str();
}

std::optional<CacheEntry>
deserializeCacheEntry(const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    if (!std::getline(is, line) || line != "portend-campaign-entry-v1")
        return std::nullopt;

    CacheEntry e;
    std::size_t bytes = 0;
    bool saw_bytes = false;
    while (std::getline(is, line)) {
        const std::size_t sp = line.find(' ');
        if (sp == std::string::npos)
            return std::nullopt;
        const std::string key = line.substr(0, sp);
        const std::string val = line.substr(sp + 1);
        if (key == "sig") {
            if (!parseHex16(val, nullptr))
                return std::nullopt;
            e.sig = val;
        } else if (key == "fp") {
            if (!parseHex16(val, &e.key.fingerprint))
                return std::nullopt;
        } else if (key == "trace") {
            if (!parseHex16(val, nullptr))
                return std::nullopt;
        } else if (key == "cfg") {
            if (!parseHex16(val, &e.key.config_hash))
                return std::nullopt;
        } else if (key == "name") {
            e.name = val;
        } else if (key == "bytes") {
            // The whole field, digits only.
            const char *end = val.data() + val.size();
            const auto [at, ec] = std::from_chars(val.data(), end, bytes);
            if (ec != std::errc() || at != end)
                return std::nullopt;
            saw_bytes = true;
            break; // payload follows immediately
        } else {
            return std::nullopt; // unknown header key
        }
    }
    if (e.sig.empty() || !saw_bytes)
        return std::nullopt;

    // The remainder of the stream is the payload, byte-exact.
    std::string payload(
        std::istreambuf_iterator<char>(is),
        std::istreambuf_iterator<char>{});
    if (payload.size() != bytes)
        return std::nullopt; // truncated (torn write) or trailing junk
    e.payload = std::move(payload);
    return e;
}

VerdictCache::VerdictCache(std::string dir) : dir_(std::move(dir)) {}

std::string
VerdictCache::entryPath(const std::string &sig) const
{
    return dir_ + "/" + sig + ".entry";
}

std::optional<CacheEntry>
VerdictCache::probe(const std::string &sig) const
{
    if (dir_.empty())
        return std::nullopt;
    std::ifstream is(entryPath(sig), std::ios::binary);
    if (!is)
        return std::nullopt;
    std::ostringstream os;
    os << is.rdbuf();
    std::optional<CacheEntry> e = deserializeCacheEntry(os.str());
    if (!e || e->sig != sig)
        return std::nullopt; // corrupt or misfiled: treat as a miss
    return e;
}

bool
VerdictCache::store(const CacheEntry &e, std::string *error) const
{
    if (dir_.empty())
        return true;

    std::error_code ec;
    fs::create_directories(dir_, ec);
    const std::string final_path = entryPath(e.sig);
    if (fs::exists(final_path, ec)) {
        // Content-addressed: an existing *valid* entry is equal. But
        // a corrupt or truncated survivor (probe rejects it as a
        // miss) must be repaired here, or the signature is a
        // permanent miss: every future run would re-execute the unit
        // and skip the store again. Validate, and fall through to
        // the temp+rename replace when the bytes do not parse back
        // to this signature.
        std::ifstream is(final_path, std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        std::optional<CacheEntry> cur =
            deserializeCacheEntry(os.str());
        if (cur && cur->sig == e.sig)
            return true;
    }

    // Temp + rename: a kill mid-write never leaves a torn entry at
    // the content address (the loader would reject it anyway via the
    // byte-count check, but atomic publish keeps probes cheap).
    const std::string tmp_path =
        final_path + ".tmp." +
        std::to_string(
            static_cast<unsigned long long>(
                reinterpret_cast<std::uintptr_t>(&e) ^
                std::hash<std::string>{}(e.sig)));
    {
        std::ofstream os(tmp_path, std::ios::binary);
        if (os)
            os << serializeCacheEntry(e);
        if (!os) {
            if (error)
                *error = "cannot write cache entry " + final_path;
            std::remove(tmp_path.c_str());
            return false;
        }
    }
    fs::rename(tmp_path, final_path, ec);
    if (ec) {
        std::remove(tmp_path.c_str());
        // A concurrent writer may have won the rename; that is fine.
        if (fs::exists(final_path))
            return true;
        if (error)
            *error = "cannot publish cache entry " + final_path +
                     ": " + ec.message();
        return false;
    }
    return true;
}

std::size_t
VerdictCache::sizeOnDisk() const
{
    if (dir_.empty())
        return 0;
    std::error_code ec;
    std::size_t n = 0;
    for (const auto &de : fs::directory_iterator(dir_, ec)) {
        if (de.path().extension() == ".entry")
            n += 1;
    }
    return n;
}

} // namespace portend::campaign
