#include "campaign/signature.h"

#include "explore/explorer.h"
#include "support/hash.h"
#include "sym/solver.h"

namespace portend::campaign {

std::uint64_t
configHash(const core::PortendOptions &opts, const std::string &salt)
{
    // Order is part of the hash: append-only, never reorder, so
    // signatures stay stable across builds of the same source. Dials
    // that are constants now keep their slots, at their fixed values.
    std::uint64_t h = fnv1a(std::string("portend-campaign-config-v1"));
    h = hashCombine(h, static_cast<std::uint64_t>(opts.mp));
    h = hashCombine(h, static_cast<std::uint64_t>(opts.ma));
    h = hashCombine(h, opts.adhoc_detection ? 1 : 0);
    h = hashCombine(h, opts.multi_path ? 1 : 0);
    h = hashCombine(h, opts.multi_schedule ? 1 : 0);
    h = hashCombine(h, static_cast<std::uint64_t>(core::kMaxSymbolicInputs));
    for (const rt::SymInputSpec &s : opts.sym_inputs) {
        h = fnv1a(s.name, h);
        h = hashCombine(h, s.has_range ? 1 : 0);
        h = hashCombine(h, static_cast<std::uint64_t>(s.lo));
        h = hashCombine(h, static_cast<std::uint64_t>(s.hi));
    }
    h = hashCombine(h, core::kTimeoutFactor);
    h = hashCombine(h, opts.max_steps);
    h = hashCombine(h, opts.detection_seed); // a cache namespace
    h = hashCombine(h, static_cast<std::uint64_t>(opts.detector));
    h = fnv1a(std::string("dpor"), h); // the one stage-3 explorer
    h = hashCombine(h, static_cast<std::uint64_t>(
                           explore::ExplorerOptions{}.preemption_bound));
    h = hashCombine(h,
                    static_cast<std::uint64_t>(opts.semantic_predicates.size()));
    h = hashCombine(h, sym::kMaxAssignments);
    h = hashCombine(h, sym::kMaxCandidates);
    h = hashCombine(h,
                    static_cast<std::uint64_t>(opts.executor_max_states));
    h = hashCombine(h, 0); // total_state_budget
    h = hashCombine(h, 0); // total_step_budget
    if (!salt.empty())
        h = fnv1a(salt, h);
    return h;
}

std::string
signatureHex(const UnitKey &key)
{
    std::uint64_t h = fnv1a(std::string("portend-campaign-sig-v1"));
    h = hashCombine(h, key.fingerprint);
    h = hashCombine(h, 0); // the retired trace hash
    h = hashCombine(h, key.config_hash);
    return hex16(h);
}

std::string
hex16(std::uint64_t h)
{
    static const char *digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[h & 0xf];
        h >>= 4;
    }
    return out;
}

bool
parseHex16(const std::string &s, std::uint64_t *out)
{
    if (s.size() != 16)
        return false;
    std::uint64_t v = 0;
    for (char c : s) {
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return false;
    }
    if (out)
        *out = v;
    return true;
}

} // namespace portend::campaign
