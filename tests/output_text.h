/**
 * @file
 * Per-record text of a run's output log, for tests that check two
 * runs produced the same output.
 */

#ifndef PORTEND_TESTS_OUTPUT_TEXT_H
#define PORTEND_TESTS_OUTPUT_TEXT_H

#include <string>
#include <vector>

#include "rt/vmstate.h"

namespace portend::tests {

/** One line per output record: emitting thread, label and payload. */
inline std::vector<std::string>
outputText(const rt::OutputLog &log)
{
    std::vector<std::string> lines;
    for (const rt::OutputRecord &r : log.records)
        lines.push_back("T" + std::to_string(r.tid) + " " + r.toString());
    return lines;
}

} // namespace portend::tests

#endif // PORTEND_TESTS_OUTPUT_TEXT_H
