#include "replay/trace.h"

#include <sstream>

#include "support/str.h"

namespace portend::replay {

std::vector<std::int64_t>
ScheduleTrace::concreteInputs() const
{
    std::vector<std::int64_t> out;
    out.reserve(inputs.size());
    for (const auto &r : inputs)
        out.push_back(r.value);
    return out;
}

std::string
ScheduleTrace::serialize() const
{
    std::string out = "trace v1\n";
    for (const auto &d : decisions) {
        out += "d ";
        appendNum(out, d.tid);
        out += ' ';
        appendNum(out, d.pc);
        out += ' ';
        appendNum(out, d.step);
        out += '\n';
    }
    for (const auto &r : inputs) {
        out += r.symbolic ? "i 1 " : "i 0 ";
        appendNum(out, r.sym_id);
        out += ' ';
        appendNum(out, r.value);
        out += '\n';
    }
    return out;
}

std::optional<ScheduleTrace>
ScheduleTrace::deserialize(const std::string &text)
{
    ScheduleTrace t;
    std::istringstream is(text);
    std::string header;
    if (!std::getline(is, header) || header != "trace v1")
        return std::nullopt;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        // Strict line shapes: truncated or overlong records and
        // out-of-range ids are malformed input (fuzzer-found cases),
        // not something to limp through.
        std::string trailing;
        if (tag == "d") {
            SchedDecision d;
            ls >> d.tid >> d.pc >> d.step;
            if (ls.fail() || ls >> trailing)
                return std::nullopt;
            if (d.tid < 0 || d.pc < -1)
                return std::nullopt;
            t.decisions.push_back(d);
        } else if (tag == "i") {
            int symbolic = 0;
            rt::VmState::EnvRead r;
            ls >> symbolic >> r.sym_id >> r.value;
            if (ls.fail() || ls >> trailing)
                return std::nullopt;
            if (r.sym_id < -1 || (symbolic != 0 && symbolic != 1))
                return std::nullopt;
            r.symbolic = symbolic != 0;
            t.inputs.push_back(r);
        } else {
            return std::nullopt;
        }
    }
    return t;
}

std::string
ScheduleTrace::summary(std::size_t n) const
{
    std::vector<std::string> parts;
    for (std::size_t i = 0; i < decisions.size() && i < n; ++i) {
        parts.push_back("(T" + std::to_string(decisions[i].tid) +
                        ":pc" + std::to_string(decisions[i].pc) + ")");
    }
    std::string out = join(parts, " -> ");
    if (decisions.size() > n)
        out += " -> ...";
    return out;
}

bool
ScheduleTrace::operator==(const ScheduleTrace &o) const
{
    if (decisions.size() != o.decisions.size() ||
        inputs.size() != o.inputs.size()) {
        return false;
    }
    for (std::size_t i = 0; i < decisions.size(); ++i) {
        if (!(decisions[i] == o.decisions[i]))
            return false;
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (inputs[i].symbolic != o.inputs[i].symbolic ||
            inputs[i].sym_id != o.inputs[i].sym_id ||
            inputs[i].value != o.inputs[i].value) {
            return false;
        }
    }
    return true;
}

} // namespace portend::replay
