namespace bad {

int Run();

void Legacy() {
  (void)Run();  // sidq: ignore-status(old spelling)  // expect-lint: R1
}

void Unknown() {
  int z = 3;  // sidq: allow-bogus-rule(because)  // expect-lint: S2
  (void)z;
}

void NoReason() {
  (void)Run();  // sidq: allow-ignored-status  // expect-lint: R1,S3
}

void Stale() {
  int x = 1;  // sidq: allow-wallclock(nothing here sleeps)  // expect-lint: S4
  (void)x;
}

void Fine() {
  (void)Run();  // sidq: allow-ignored-status(fixture: result unused by design)
}

}  // namespace bad
