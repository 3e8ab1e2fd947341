// ASCII heatmaps of per-router activity over the mesh: a quick visual of
// where traffic concentrates (the paper's "hot regions around memory
// controllers", §4.1). Renders the mesh as a W x H grid; each cell shows
// the node role (M = memory controller, c = compute) and a shade from the
// normalized activity: " .:-=+*#%@" (cold -> hot).
#pragma once

#include <string>

#include "noc/network.hpp"

namespace arinoc {

/// Flits forwarded per router per cycle (every fabric output port).
std::string link_heatmap(const Network& net, Cycle elapsed);

/// Flits injected per router per cycle (the injection hot spots).
std::string injection_heatmap(const Network& net, Cycle elapsed);

namespace detail {
/// Maps a value in [0, max] to a shade character (used by both heatmaps).
char shade(double value, double max);
}  // namespace detail

}  // namespace arinoc
