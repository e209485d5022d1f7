#include <vector>

namespace aeo {

class Recorder {
  public:
    void
    Record(int value)
    {
        history_.push_back(value);
    }

  private:
    std::vector<int> history_;
};

class Meter : public Recorder {
  public:
    // aeo: hot-path
    void
    Sample()
    {
        Record(1);
    }
};

}  // namespace aeo
