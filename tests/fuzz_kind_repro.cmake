# Checks the stable repro form `fuzz_scenarios --kind K --seed N`: for seeds
# 190..200, which select every one of the eleven kinds once, running the
# golden line's kind by name must print exactly that golden line. Run by
# ctest as:
#
#   cmake -DFUZZ=<path to fuzz_scenarios> -DGOLDEN=<golden file> -P fuzz_kind_repro.cmake
if(NOT FUZZ OR NOT GOLDEN)
  message(FATAL_ERROR "usage: cmake -DFUZZ=<fuzz_scenarios> -DGOLDEN=<file> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(STRINGS "${GOLDEN}" golden_lines REGEX "^[^#]")

set(mismatches 0)
foreach(seed RANGE 190 200)
  math(EXPR index "${seed} - 1")
  list(GET golden_lines ${index} want)
  if(NOT want MATCHES "^seed=${seed} kind=([a-z]+) ")
    message(FATAL_ERROR "${GOLDEN}: line ${seed} is not seed ${seed}: ${want}")
  endif()
  set(kind "${CMAKE_MATCH_1}")
  execute_process(COMMAND "${FUZZ}" --kind ${kind} --seed ${seed} RESULT_VARIABLE status
                  OUTPUT_VARIABLE actual OUTPUT_STRIP_TRAILING_WHITESPACE)
  if(NOT actual STREQUAL want OR NOT status EQUAL 0)
    message("--kind ${kind} --seed ${seed} differs (exit ${status}):\n  golden: ${want}\n  actual: ${actual}")
    math(EXPR mismatches "${mismatches} + 1")
  endif()
endforeach()

# An unknown kind is a usage error (exit 2), not a run.
execute_process(COMMAND "${FUZZ}" --kind no-such-kind --seed 1 RESULT_VARIABLE status
                OUTPUT_QUIET ERROR_QUIET)
if(NOT status EQUAL 2)
  message("--kind no-such-kind exited ${status}, expected the usage error 2")
  math(EXPR mismatches "${mismatches} + 1")
endif()

if(mismatches GREATER 0)
  message(FATAL_ERROR "${mismatches} --kind repro checks failed")
endif()
message("11 --kind repros match ${GOLDEN}")
