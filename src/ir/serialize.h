/**
 * @file
 * Self-contained textual serialization of PIL programs.
 *
 * The format round-trips: serialize() then deserialize() reproduces
 * the program exactly (verified by property tests). It lets workload
 * models, regression programs, and bug-report reproducers live as
 * plain text artifacts next to the schedule traces they pair with
 * (paper §3.6's replayable evidence).
 *
 * Format: the serializer writes one declaration per line, in this
 * order (<s> is a quoted string, every other field a decimal
 * integer unless named below):
 *
 *   pil v1 <s:program name>
 *   global <s:name> <size> [<init value>...]
 *   mutex <s:name>
 *   cond <s:name>
 *   barrier <s:name> <count>
 *   input <s:name> <lo> <hi>
 *   func <s:name> <params> <regs>
 *   block <s:name>
 *   inst <op> <dst> <a> <b> <c> <kind> <width> <gid> <sid> <sid2>
 *        <fid> <then> <else> <lo> <hi> <s:text> <s:file> <line>
 *   end
 *
 * (an inst is one line). <op> and <kind> are the opName and
 * sym::kindName mnemonics, <width> is 1, 8, 16, 32 or 64, and the
 * operands <a> <b> <c> are r<N>, i<V> or _.
 * Block and function lines nest by order: a block belongs to the
 * last func, an inst to the last block.
 *
 * Token rules of the parser:
 *  - Tokens are separated by C-locale whitespace other than the
 *    newline (space, \t, \v, \f, \r), so tabs and CRLF line ends
 *    load; empty lines are skipped.
 *  - A number is one whole token that std::from_chars consumes
 *    entirely and that fits its field (no '+', no junk after it).
 *  - A quoted string runs from its opening quote to the first
 *    unescaped quote, which must end the token; a backslash takes
 *    the next character literally (the serializer escapes only
 *    quotes and backslashes), and inner whitespace is kept.
 *  - A line holds exactly its fields: trailing tokens are rejected.
 *  - Errors name their line: "... (line N)".
 */

#ifndef PORTEND_IR_SERIALIZE_H
#define PORTEND_IR_SERIALIZE_H

#include <optional>
#include <string>

#include "ir/program.h"

namespace portend::ir {

/** Render @p p in the round-trip text format. */
std::string serializeProgram(const Program &p);

/**
 * Parse the round-trip text format.
 *
 * @return the finalized program, or nullopt with @p error filled
 *         when the text is malformed
 */
std::optional<Program> deserializeProgram(const std::string &text,
                                          std::string *error = nullptr);

} // namespace portend::ir

#endif // PORTEND_IR_SERIALIZE_H
