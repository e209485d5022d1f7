namespace aeo {

class Ladder {
  public:
    int level() const { return level_; }

  private:
    int level_ = 0;
};

class Domain : public Ladder {};

class Cluster final : public Domain {
  public:
    // aeo: hot-path
    int
    Frequency() const
    {
        return level() * 2;
    }
};

}  // namespace aeo
