# Fails when README.md's "# N tests" comment disagrees with the number of
# tests ctest registers in a build tree, so the documented count cannot
# drift from the suite.
#
#   cmake -DREADME=README.md -DBUILD_DIR=build -DCTEST=ctest \
#         -P tools/check_readme_test_count.cmake
execute_process(COMMAND ${CTEST} -N
                WORKING_DIRECTORY ${BUILD_DIR}
                OUTPUT_VARIABLE listing
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "ctest -N failed in ${BUILD_DIR} (${status})")
endif()
if(NOT listing MATCHES "Total Tests: ([0-9]+)")
  message(FATAL_ERROR "ctest -N printed no test total")
endif()
set(registered ${CMAKE_MATCH_1})

file(STRINGS ${README} lines REGEX "# [0-9]+ tests")
list(LENGTH lines matches)
if(NOT matches EQUAL 1)
  message(FATAL_ERROR
          "${README} has ${matches} '# N tests' lines, expected exactly one")
endif()
string(REGEX MATCH "# ([0-9]+) tests" _ "${lines}")
set(documented ${CMAKE_MATCH_1})

if(NOT documented EQUAL registered)
  message(FATAL_ERROR "${README} says ${documented} tests but ctest "
                      "registers ${registered}; update the count")
endif()
message(STATUS "${README}: ${documented} tests, as registered")
