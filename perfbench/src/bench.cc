#include "bench.h"

#include <cstdlib>
#include <filesystem>

namespace perfbench {

namespace {

cpu_set_t
maskOf(const std::vector<int>& cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    return set;
}

} // namespace

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

void
pinThread(int cpu)
{
    const cpu_set_t set = maskOf({cpu});
    sched_setaffinity(0, sizeof(set), &set);
}

void
pinProcess(const std::vector<int>& cpus)
{
    const cpu_set_t set = maskOf(cpus);
    std::error_code ec;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task", ec))
        sched_setaffinity(static_cast<pid_t>(std::strtol(
                              task.path().filename().c_str(), nullptr, 10)),
                          sizeof(set), &set);
}

} // namespace perfbench
