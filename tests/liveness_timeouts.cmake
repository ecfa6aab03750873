# Per-test timeouts for liveness tests (included by CTest after
# gtest_discover_tests has defined every test). Each finishes in well under
# a second; a hang fails after 60 s instead of the suite-wide 600 s.
set_tests_properties(
  "Rotor.OneRoundSpanRewiresItsMatchingAfterAPortRepair"
  "ChurnFleet.RotorChurnFleetCompletesEveryJob"
  "OpusTransport.StepSynchronousRunsOfOneGroupReconfigureOneAfterAnother"
  PROPERTIES TIMEOUT 60)
