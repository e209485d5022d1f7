/**
 * @file
 * E3 — Table II: the Nexus 6 CPU frequency and memory-bandwidth tables.
 * Trivially reproduced from the platform model; printed here so the bench
 * suite covers every table in the paper.
 */
#include <cstdio>

#include "bench_common.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "soc/nexus6.h"

int
main(int argc, char** argv)
{
    using namespace aeo;
    // No flag changes this bench, but a misspelt one still stops it, and so
    // does --seed: the tables hold no randomness to seed.
    bench::RejectSeed(bench::ParseBenchArgs(argc, argv), argv[0]);
    bench::PrintHeader("E3 / Table II", "CPU frequencies and memory bandwidths");

    const FrequencyTable freqs = MakeNexus6FrequencyTable();
    const BandwidthTable bws = MakeNexus6BandwidthTable();

    TextTable table({"#", "CPU freq (GHz)", "volts (model)", "#", "Mem BW (MBps)"});
    const int rows = freqs.size();
    for (int i = 0; i < rows; ++i) {
        const std::string bw_idx = i < bws.size() ? StrFormat("%d", i + 1) : "";
        const std::string bw_val =
            i < bws.size() ? StrFormat("%.0f", bws.BandwidthAt(i).value()) : "";
        table.AddRow({StrFormat("%d", i + 1),
                      StrFormat("%.4f", freqs.FrequencyAt(i).value()),
                      StrFormat("%.3f", freqs.VoltageAt(i).value()), bw_idx, bw_val});
    }
    std::printf("%s\n", table.ToString().c_str());
    std::printf("18 CPU levels x 13 bandwidth levels = %d system configurations\n",
                freqs.size() * bws.size());
    return 0;
}
