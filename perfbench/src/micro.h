// Direct calls into single layers, timed by the benchmark in the traced
// run: the arch codecs, reassembly, the wire format, the stats registry and
// the directory. Each returns the median over batches of its unit cost and
// records one span per timed loop.
#pragma once

#include <map>
#include <string>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

// Metric name (as in BENCHMARK.json) -> value in the metric's unit.
std::map<std::string, double> RunMicro(const Inputs& in, SpanLog& spans);

}  // namespace perfbench
