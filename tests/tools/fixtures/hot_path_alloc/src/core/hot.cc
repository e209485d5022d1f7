#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace aeo {
std::vector<int> g_log;

struct Event {
    std::string path;
};

void Helper();
void Refill();
void Stamp(Event& event, std::string& path);

// aeo: hot-path
void
RunCycle(Event& event, std::string& path)
{
    Helper();
    Refill();
    Stamp(event, path);
}

void
Helper()
{
    int* scratch = new int(3);
    delete scratch;
    auto owned = std::make_unique<int>(4);
    std::function<void()> cb = [] {};
    g_log.push_back(1);
}

// aeo: hot-path-stop -- amortized refill: runs only when the cache is
// invalidated, never on the steady-state cycle path.
void
Refill()
{
    g_log.push_back(2);
}

// Copying into a string member can allocate; moving hands the buffer over.
void
Stamp(Event& event, std::string& path)
{
    event.path = path;
    event.path = std::move(path);
}
}  // namespace aeo

// aeo: hot-path
