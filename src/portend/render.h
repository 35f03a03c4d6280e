/**
 * @file
 * Report rendering for one pipeline run.
 *
 * The Fig. 6 text, compact classify table, and JSON renderings used
 * to live inside the CLI; the campaign engine needs the exact same
 * bytes (cached verdict payloads are compared byte-for-byte against
 * fresh runs), so the formatting is library code now and the CLI and
 * engine are both thin callers. Byte stability here is load-bearing:
 * goldens pin `classify <w> --json`, and the campaign cache's
 * soundness argument is "equal signature implies equal bytes".
 */

#ifndef PORTEND_PORTEND_RENDER_H
#define PORTEND_PORTEND_RENDER_H

#include <optional>
#include <string>
#include <vector>

#include "portend/portend.h"

namespace portend::core {

/** How one pipeline's result should be rendered. */
struct RenderMode
{
    bool json = false;          ///< JSON object instead of text
    bool classify_mode = false; ///< compact table instead of Fig. 6
    std::optional<RaceClass> only_class; ///< --class filter
};

/** JSON string escaping shared by every JSON-emitting layer. */
std::string jsonEscape(const std::string &s);

/** The `summary:` block shared by run and classify text modes. */
std::string summaryText(const PortendResult &res);

/**
 * One pipeline's JSON object (no trailing newline, so batch mode
 * can join objects into an array). @p reports is the post---class
 * selection, in cluster order.
 */
std::string
jsonReport(const std::string &name, const ir::Program &prog,
           const PortendResult &res,
           const std::vector<const PortendReport *> &reports);

/** The Fig. 6 text rendering of one `portend run` pipeline. */
std::string
runText(const std::string &name, const ir::Program &prog,
        const PortendResult &res,
        const std::vector<const PortendReport *> &reports);

/** The compact table rendering of one `portend classify` pipeline. */
std::string
classifyText(const std::string &name, const ir::Program &prog,
             const PortendResult &res,
             const std::vector<const PortendReport *> &reports,
             int mp, int ma);

/**
 * The full rendering of one pipeline under @p mode: applies the
 * --class filter and picks the JSON/run/classify shape. Returns
 * exactly the bytes the CLI prints for one workload (JSON output
 * carries its trailing newline). @p mp/@p ma feed the
 * classify-table header.
 */
std::string renderPipelineReport(const std::string &name,
                                 const ir::Program &prog,
                                 const PortendResult &res, int mp,
                                 int ma, const RenderMode &mode);

} // namespace portend::core

#endif // PORTEND_PORTEND_RENDER_H
