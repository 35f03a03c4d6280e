#include "fuzz/corpus.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ir/serialize.h"
#include "replay/trace.h"
#include "support/str.h"

namespace fs = std::filesystem;

namespace portend::fuzz {

namespace {

bool
writeFile(const fs::path &path, const std::string &content,
          std::string *error)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        if (error)
            *error = "cannot open " + path.string() + " for writing";
        return false;
    }
    os << content;
    os.close();
    if (!os) {
        if (error)
            *error = "short write to " + path.string();
        return false;
    }
    return true;
}

std::optional<std::string>
readFile(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return std::nullopt;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** meta.txt is key=value, one pair per line, order fixed. */
std::string
renderMeta(const CorpusEntry &e)
{
    std::ostringstream os;
    os << "kind=" << e.kind << "\n";
    os << "check=" << e.check << "\n";
    os << "fuzz_seed=" << e.fuzz_seed << "\n";
    os << "index=" << e.index << "\n";
    os << "signature=" << e.signature << "\n";
    if (!e.witness.empty())
        os << "witness=" << e.witness << "\n";
    os << "recipe=" << e.recipe_text << "\n";
    return os.str();
}

/** A meta.txt number: decimal digits only (no sign, no blanks, nothing
 *  after them) whose value fits 64 bits. */
bool
parseU64(const std::string &s, std::uint64_t *out)
{
    const char *end = s.data() + s.size();
    const auto [at, ec] = std::from_chars(s.data(), end, *out);
    return ec == std::errc() && at == end;
}

bool
parseMeta(const std::string &text, CorpusEntry &e, std::string *error)
{
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        lineno += 1;
        if (line.empty())
            continue;
        std::size_t eq = line.find('=');
        if (eq == std::string::npos) {
            if (error) {
                *error = "meta.txt line " + std::to_string(lineno) +
                         ": missing '='";
            }
            return false;
        }
        std::string key = line.substr(0, eq);
        std::string val = line.substr(eq + 1);
        bool ok = true;
        if (key == "kind")
            e.kind = val;
        else if (key == "check")
            e.check = val;
        else if (key == "fuzz_seed")
            ok = parseU64(val, &e.fuzz_seed);
        else if (key == "index")
            ok = parseU64(val, &e.index);
        else if (key == "signature")
            e.signature = val;
        else if (key == "witness")
            e.witness = val;
        else if (key == "recipe")
            e.recipe_text = val;
        // Unknown keys are ignored: forward compatibility, and the
        // retired `explore=` and `detection_seed=` lines of older
        // entries.
        if (!ok) {
            if (error) {
                *error = "meta.txt line " + std::to_string(lineno) +
                         ": bad number for " + key;
            }
            return false;
        }
    }
    if (e.kind != "regression" && e.kind != "disagreement") {
        if (error)
            *error = "meta.txt: unknown kind '" + e.kind + "'";
        return false;
    }
    return true;
}

} // namespace

bool
saveEntry(const std::string &dir, const CorpusEntry &entry,
          std::string *error)
{
    std::error_code ec;
    fs::path entry_dir = fs::path(dir) / entry.name;
    fs::create_directories(entry_dir, ec);
    if (ec) {
        if (error)
            *error = "cannot create " + entry_dir.string() + ": " +
                     ec.message();
        return false;
    }
    return writeFile(entry_dir / "meta.txt", renderMeta(entry),
                     error) &&
           writeFile(entry_dir / "program.pil", entry.program_text,
                     error) &&
           writeFile(entry_dir / "trace.txt", entry.trace_text,
                     error);
}

std::optional<CorpusEntry>
loadEntry(const std::string &entry_dir, std::string *error)
{
    fs::path p(entry_dir);
    CorpusEntry e;
    e.name = p.filename().string();

    std::optional<std::string> meta = readFile(p / "meta.txt");
    if (!meta) {
        if (error)
            *error = "missing meta.txt in " + entry_dir;
        return std::nullopt;
    }
    if (!parseMeta(*meta, e, error))
        return std::nullopt;

    std::optional<std::string> prog = readFile(p / "program.pil");
    if (!prog) {
        if (error)
            *error = "missing program.pil in " + entry_dir;
        return std::nullopt;
    }
    e.program_text = *prog;

    std::optional<std::string> trace = readFile(p / "trace.txt");
    if (!trace) {
        if (error)
            *error = "missing trace.txt in " + entry_dir;
        return std::nullopt;
    }
    e.trace_text = *trace;
    return e;
}

std::vector<std::string>
listEntries(const std::string &dir)
{
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto &it : fs::directory_iterator(dir, ec)) {
        if (it.is_directory() &&
            fs::exists(it.path() / "meta.txt")) {
            names.push_back(it.path().filename().string());
        }
    }
    std::sort(names.begin(), names.end());
    return names;
}

ReplayOutcome
replayEntry(const CorpusEntry &entry)
{
    ReplayOutcome out;
    out.name = entry.name;

    std::string error;
    std::optional<ir::Program> prog =
        ir::deserializeProgram(entry.program_text, &error);
    if (!prog) {
        out.detail = "program.pil does not parse: " + error;
        return out;
    }
    if (!replay::ScheduleTrace::deserialize(entry.trace_text)) {
        out.detail = "trace.txt does not parse";
        return out;
    }

    // The deep battery (OracleOptions' default).
    OracleVerdict v = runOracle(*prog, OracleOptions{});
    out.metrics = v.metrics;

    if (entry.kind == "disagreement") {
        // Green once the recorded falsification no longer reproduces.
        for (const CheckResult &c : v.checks) {
            if (c.name == entry.check && !c.ok) {
                out.detail = "check '" + entry.check +
                             "' still fails: " + c.detail;
                return out;
            }
        }
        out.ok = true;
        return out;
    }

    // Regression entry: signature, trace, and oracle must all hold.
    if (v.flagged()) {
        out.detail = "oracle check '" + v.firstFailure() +
                     "' failed on replay";
        return out;
    }
    if (v.signature() != entry.signature) {
        out.detail = "behavior signature changed: expected [" +
                     entry.signature + "], got [" + v.signature() +
                     "]";
        return out;
    }
    if (v.trace_text != entry.trace_text) {
        out.detail = "recorded schedule trace no longer reproduces";
        return out;
    }
    out.ok = true;
    return out;
}

CorpusRunResult
runCorpus(const std::string &dir)
{
    CorpusRunResult res;
    for (const std::string &name : listEntries(dir)) {
        std::string error;
        std::optional<CorpusEntry> entry =
            loadEntry((fs::path(dir) / name).string(), &error);
        ReplayOutcome out;
        out.name = name;
        if (!entry) {
            out.detail = error;
        } else {
            out = replayEntry(*entry);
        }
        res.total += 1;
        if (out.ok)
            res.passed += 1;
        res.metrics.merge(out.metrics);
        res.outcomes.push_back(std::move(out));
    }
    return res;
}

} // namespace portend::fuzz
