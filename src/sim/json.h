/**
 * @file
 * Tiny shared JSON-writing helpers.
 *
 * Every exporter in the tree (metrics snapshots, Chrome traces, the
 * time-series and SLO reports) hand-writes its JSON; these helpers keep
 * the escaping and number formatting rules in one place so a metric
 * name with a quote in it cannot corrupt one document format while the
 * others survive it.
 */

#ifndef CATALYZER_SIM_JSON_H
#define CATALYZER_SIM_JSON_H

#include <iosfwd>
#include <string>
#include <string_view>

namespace catalyzer::sim {

/** Escape @p s for use inside a double-quoted JSON string. */
std::string jsonEscape(std::string_view s);

/** One JSON number; NaN/inf become null (JSON has no non-finite). */
void writeJsonNumber(std::ostream &os, double v);

} // namespace catalyzer::sim

#endif // CATALYZER_SIM_JSON_H
