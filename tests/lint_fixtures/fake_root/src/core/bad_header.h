// expect-lint: R4
namespace bad {
using namespace std;  // expect-lint: R3
inline int Seed() { return rand(); }  // expect-lint: R2
inline std::mt19937_64 Engine() { return std::mt19937_64(1); }  // expect-lint: R2
inline int* Leak() { return new int(7); }  // expect-lint: R5
}  // namespace bad
